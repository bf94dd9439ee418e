"""Rasterized bounded domains: masks, boundary clouds, dilation, volume.

A domain is a boolean mask over a regular grid with spacing h; the cell with
index (i, j[, k]) has its center at origin + (index + 0.5) * h.  Every mask
keeps at least a one-cell false margin on each face, so the represented set
is strictly inside the grid box.

Only this module knows the face lattice: :func:`extract_boundary` builds each
face cloud with its :class:`FaceTable`, the cloud's one face index, and
:func:`_face_gaps` reads the cloud's nearest-neighbour gaps off that table
the first time they are read (``hausdorff._cloud_nn``).
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import EmptyDomainError, InvalidArgumentError, SpecError

__all__ = [
    "GridDomain",
    "BoundaryCloud",
    "FaceTable",
    "make_ball",
    "make_box",
    "make_annulus",
    "rasterize_polygon",
    "extract_boundary",
    "dilate",
    "volume",
    "domain_from_spec",
]


@dataclass(frozen=True, eq=False)
class GridDomain:
    """A bounded open set stored as a boolean cell mask.

    A domain is equal only to itself; functions tie to it by identity.

    Attributes
    ----------
    spacing : float
        Grid spacing h > 0 (same in every axis).
    origin : ndarray, shape (n,)
        Coordinates of the low corner of the grid box.
    mask : ndarray of bool
        True where the cell center belongs to the set.
    """

    spacing: float
    origin: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        if self.spacing <= 0:
            raise InvalidArgumentError("spacing must be positive")
        mask = np.asarray(self.mask, dtype=bool)
        origin = np.asarray(self.origin, dtype=float).copy()
        if mask.ndim not in (2, 3):
            raise InvalidArgumentError("only 2- and 3-dimensional grids are supported")
        if origin.shape != (mask.ndim,):
            raise InvalidArgumentError("origin length must match grid dimension")
        for axis in range(mask.ndim):
            first = np.take(mask, 0, axis=axis)
            last = np.take(mask, mask.shape[axis] - 1, axis=axis)
            if first.any() or last.any():
                raise InvalidArgumentError(
                    "mask must keep a one-cell false margin on every face"
                )
        mask = mask.copy()
        mask.setflags(write=False)
        origin.setflags(write=False)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "spacing", float(self.spacing))

    @property
    def dim(self) -> int:
        return self.mask.ndim

    @property
    def shape(self) -> tuple:
        return self.mask.shape

    def cell_centers(self) -> np.ndarray:
        """Centers of all true cells in C order: shape (N, n), column-major.

        Each column is gathered from the grid's centre lattice, which has the
        bits of ``origin + (argwhere index + 0.5) * h``; column-major (as
        ``argwhere`` gave) is the fast layout for an ``Expression``.
        """
        out = np.empty((self.dim, int(np.count_nonzero(self.mask))))
        for row, x in zip(out, _centers_grid(self.origin, self.shape, self.spacing)):
            row[...] = np.broadcast_to(x, self.shape)[self.mask]
        return out.T

    def translated(self, shift: Sequence[float]) -> "GridDomain":
        return GridDomain(self.spacing, self.origin + np.asarray(shift, float), self.mask)


@dataclass(frozen=True, eq=False)
class FaceTable:
    """Where the faces of a cloud from :func:`extract_boundary` sit on its grid.

    ``mask`` and ``origin`` are those of the domain the cloud was extracted
    from (read-only arrays; the domain itself is not held, since it caches
    its cloud).  ``blocks[axis, sign]`` holds, for the faces with outward
    direction ``sign * e_axis``, their cloud rows, one contiguous run given
    as a ``slice``, and the flat index in the grid of the interior cell each
    sits on (a read-only array, ascending).  Every (axis, sign) has a block,
    and the blocks follow each other in cloud order.
    """

    mask: np.ndarray
    origin: np.ndarray
    blocks: dict

    @property
    def shape(self) -> tuple:
        return self.mask.shape


@dataclass(frozen=True, eq=False)
class BoundaryCloud:
    """Sampled boundary: points with per-point (n-1)-measure weights.

    The coordinates are held once, axis by axis: ``coords`` is a read-only
    C-contiguous (n, N) array, one row per axis, and ``points`` is its
    transposed (N, n) view, so a pass along one axis of the cloud reads one
    contiguous row.  The constructor takes ``points`` of shape (N, n), any
    layout, and copies it; it refuses a shape other than (N, dim) (an empty
    cloud may be given as any empty array), non-finite coordinates,
    weights that are not finite and nonnegative or not one per point,
    ragged or non-numeric input, and a resolution that is not finite and
    positive.

    Clouds produced by :func:`extract_boundary` are given their ``faces``
    table, and every cloud its nearest-neighbour gaps ``nn_gaps`` the first
    time they are read (``hausdorff._cloud_nn``); synthetic clouds have no
    face table.
    """

    dim: int
    resolution: float
    points: np.ndarray
    weights: np.ndarray
    coords: np.ndarray = field(init=False, repr=False)
    faces: FaceTable | None = field(default=None, init=False, repr=False)
    nn_gaps: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if not (isinstance(self.dim, (int, np.integer)) and self.dim >= 1):
            raise InvalidArgumentError(f"dimension must be a positive integer, got {self.dim!r}")
        try:
            points = np.asarray(self.points, dtype=float)
            weights = np.asarray(self.weights, dtype=float).reshape(-1).copy()
        except (TypeError, ValueError) as err:  # ragged or non-numeric input
            raise InvalidArgumentError(f"points and weights must be numeric arrays: {err}") from None
        if points.size == 0:
            points = points.reshape(0, self.dim)
        if points.ndim != 2 or points.shape[1] != self.dim:
            raise InvalidArgumentError(f"points must have shape (N, {self.dim}), got {points.shape}")
        if not np.isfinite(points).all():
            raise InvalidArgumentError("points must be finite")
        if len(points) != len(weights):
            raise InvalidArgumentError("points and weights must have equal length")
        if not (np.isfinite(weights) & (weights >= 0)).all():
            raise InvalidArgumentError("weights must be finite and nonnegative")
        if not (math.isfinite(self.resolution) and self.resolution > 0):
            raise InvalidArgumentError(f"resolution must be finite and positive, got {self.resolution}")
        coords = np.array(points.T, order="C")
        coords.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "points", coords.T)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return self.coords.shape[1]

    @property
    def total_weight(self) -> float:
        return float(np.sum(self.weights))


# false cells around the bounding box of a rasterized shape, per side
_PAD_CELLS = 2
# cells per block of the radial rasterizer's distances (2 MB per float array)
_RADIAL_BLOCK = 1 << 18
# most cells a domain or dilation grid may have: about 64x the largest suite,
# bench and test grid (the 2,052 x 2,052 disk); a float array of it is 2 GiB.
# It must stay below 2^31: within_distance indexes the flat grid in int32
_MAX_GRID_CELLS = 1 << 28


def _grid_shape(extent, limit: int | None = None) -> tuple:
    """The integer shape of the per-axis cell counts ``extent`` (floats), or an
    InvalidArgumentError before anything is allocated when the grid would
    have more than ``limit`` cells (``_MAX_GRID_CELLS`` by default) or a
    count is not finite."""
    limit = _MAX_GRID_CELLS if limit is None else limit
    cells = math.prod(float(e) for e in extent)
    if not cells <= limit:
        raise InvalidArgumentError(f"grid of {cells:.3g} cells exceeds the limit of {limit}")
    return tuple(int(e) for e in extent)


def _empty_grid(low, high, h):
    """Grid box covering [low, high] with a false margin of ``_PAD_CELLS``."""
    low = np.asarray(low, float)
    high = np.asarray(high, float)
    shape = _grid_shape(np.ceil((high - low) / h) + 2 * _PAD_CELLS)
    origin = low - _PAD_CELLS * h
    return origin, shape


def _lattice(origin, h, lo, hi) -> list:
    """Cell-centre coordinates of B index boxes [lo, hi), one sparse array per axis.

    ``lo`` and ``hi`` are (B, n) integer bounds, which may reach past the grid
    box (a virtual lattice aligned with the grid).  Axis a's array has shape
    (B, 1, ..., width_a, ..., 1), where width is the widest box, and holds
    ``inf`` past each box's ``hi``.  The arrays broadcast against each other,
    so a per-axis sum such as ``sum((x - c) ** 2 ...)`` adds every element in
    the same order as on a dense meshgrid.
    """
    n = len(origin)
    width = np.max(hi - lo, axis=0, initial=0)
    coords = []
    for a in range(n):
        idx = lo[:, a, None] + np.arange(width[a])
        x = origin[a] + (idx + 0.5) * h
        x[idx >= hi[:, a, None]] = np.inf
        coords.append(x.reshape((len(x),) + (1,) * a + (width[a],) + (1,) * (n - 1 - a)))
    return coords


def _centers_grid(origin, shape, h) -> list:
    """Cell-centre coordinates of the whole grid box as a sparse lattice."""
    lo = np.zeros((1, len(shape)), dtype=np.int64)
    return [x[0] for x in _lattice(origin, h, lo, np.array([shape]))]


def make_ball(center: Sequence[float], radius: float, h: float) -> GridDomain:
    """Rasterize the open ball: cells whose center lies strictly inside."""
    center = np.asarray(center, dtype=float)
    if center.shape not in ((2,), (3,)):
        raise InvalidArgumentError("center must have 2 or 3 components")
    if radius <= 0 or h <= 0:
        raise InvalidArgumentError("radius and spacing must be positive")
    if h >= radius:
        raise InvalidArgumentError("spacing must be smaller than the radius")
    return _radial_domain(center, radius, 0.0, h)


def make_box(corner: Sequence[float], sides: Sequence[float], h: float) -> GridDomain:
    """Rasterize an axis-aligned open box [corner, corner + sides]."""
    corner = np.asarray(corner, dtype=float)
    sides = np.asarray(sides, dtype=float)
    if corner.shape != sides.shape or corner.shape not in ((2,), (3,)):
        raise InvalidArgumentError("corner and sides must both have 2 or 3 components")
    if (sides <= 0).any() or h <= 0:
        raise InvalidArgumentError("sides and spacing must be positive")
    origin, shape = _empty_grid(corner, corner + sides, h)
    grids = _centers_grid(origin, shape, h)
    mask = np.ones(shape, dtype=bool)
    for g, lo, side in zip(grids, corner, sides):
        mask &= (g > lo) & (g < lo + side)
    return GridDomain(h, origin, mask)


def make_annulus(center: Sequence[float], r_outer: float, r_inner: float, h: float) -> GridDomain:
    """Rasterize the open annulus r_inner <= |x - center| < r_outer."""
    if not 0 < r_inner < r_outer:
        raise InvalidArgumentError("need 0 < r_inner < r_outer")
    if h <= 0 or h >= r_outer - r_inner:
        raise InvalidArgumentError("spacing must resolve the annulus width")
    center = np.asarray(center, dtype=float)
    if center.shape not in ((2,), (3,)):
        raise InvalidArgumentError("center must have 2 or 3 components")
    return _radial_domain(center, r_outer, r_inner, h)


def _radial_domain(center: np.ndarray, r_outer: float, r_inner: float, h: float) -> GridDomain:
    """Cells whose centre c has r_inner <= |c - center| < r_outer (r_inner 0: the open ball).

    Squared distances, summed ``((0 + a) + b)(+ c)``, are formed in blocks of
    grid rows, so no full-grid float array is built.
    """
    origin, shape = _empty_grid(center - r_outer, center + r_outer, h)
    first, *rest = _centers_grid(origin, shape, h)
    mask = np.empty(shape, dtype=bool)
    rows = max(1, _RADIAL_BLOCK // int(np.prod(shape[1:])))
    for r0 in range(0, shape[0], rows):
        dist2 = sum((g - c) ** 2 for g, c in zip([first[r0 : r0 + rows], *rest], center))
        mask[r0 : r0 + rows] = (dist2 < r_outer ** 2) & (dist2 >= r_inner ** 2)
    return GridDomain(h, origin, mask)


def _segments(vertices: np.ndarray):
    return vertices, np.roll(vertices, -1, axis=0)


def _proper_intersection(p1, p2, q1, q2) -> bool:
    """True if open segments (p1,p2) and (q1,q2) properly cross."""

    def orient(a, b, c):
        v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        return 0 if v == 0 else (1 if v > 0 else -1)

    o1 = orient(p1, p2, q1)
    o2 = orient(p1, p2, q2)
    o3 = orient(q1, q2, p1)
    o4 = orient(q1, q2, p2)
    return o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4)


def rasterize_polygon(vertices: Sequence[Sequence[float]], h: float) -> GridDomain:
    """Rasterize a simple polygon with the even-odd rule at cell centers."""
    verts = np.asarray(vertices, dtype=float)
    if verts.ndim != 2 or verts.shape[1] != 2 or len(verts) < 3:
        raise InvalidArgumentError("need at least 3 two-dimensional vertices")
    if h <= 0:
        raise InvalidArgumentError("spacing must be positive")
    # shoelace area; zero area means a degenerate polygon
    x, y = verts.T
    area = 0.5 * abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
    if area < 1e-12:
        raise InvalidArgumentError("degenerate polygon with zero area")
    m = len(verts)
    for i in range(m):
        for j in range(i + 1, m):
            if j == i or (j + 1) % m == i or (i + 1) % m == j:
                continue  # adjacent edges share a vertex
            if _proper_intersection(verts[i], verts[(i + 1) % m], verts[j], verts[(j + 1) % m]):
                raise InvalidArgumentError("polygon is self-intersecting")

    origin, shape = _empty_grid(verts.min(axis=0), verts.max(axis=0), h)
    XC, YC = _centers_grid(origin, shape, h)
    inside = np.zeros(shape, dtype=bool)
    a, b = _segments(verts)
    for (x1, y1), (x2, y2) in zip(a, b):
        if y1 == y2:
            continue  # horizontal edges never cross the horizontal ray test
        cond = (y1 <= YC) != (y2 <= YC)
        xs = x1 + (YC - y1) * (x2 - x1) / (y2 - y1)
        inside ^= cond & (XC < xs)
    return GridDomain(h, origin, inside)


def extract_boundary(domain: GridDomain) -> BoundaryCloud:
    """One sample per interior-cell face adjacent to an exterior cell.

    The sample sits at the face center and carries weight h^(n-1), which is
    exact for axis-aligned boundaries and measures the staircase (l1)
    boundary of curved sets; quantitative boundary-measure values come from
    the covering estimator, not from these raw weights.

    The cloud is built with its face table, one pass over the mask per face
    direction; its nearest-neighbour gaps are left to their first read
    (:func:`_face_gaps`).  Domains and clouds are immutable, so the cloud is
    built once per domain, cached on it, and shared by every caller.
    """
    cached = vars(domain).get("_boundary")
    if cached is not None:
        return cached
    mask = domain.mask
    if not mask.any():
        raise EmptyDomainError("cannot extract the boundary of an empty mask")
    h = domain.spacing
    flat = mask.reshape(-1)
    blocks, start = {}, 0
    for axis in range(domain.dim):
        stride = int(np.prod(mask.shape[axis + 1:]))
        for sign in (1, -1):
            # true cells, in C order, whose neighbour one stride on (back, for sign -1)
            # is false (on booleans a > b is "a and not b"); the false margin keeps every
            # neighbour of a true cell in the grid, and a nonempty mask has faces each way
            if sign == 1:
                cells = np.flatnonzero(flat[:-stride] > flat[stride:])
            else:
                cells = np.flatnonzero(flat[stride:] > flat[:-stride]) + stride
            cells.setflags(write=False)
            blocks[axis, sign] = (slice(start, start + len(cells)), cells)
            start += len(cells)
    # one row per axis: the cell centre origin + (index + 0.5) * h, moved half a cell
    # along each face's own axis
    coords = np.empty((domain.dim, start))
    index = np.unravel_index(np.concatenate([cells for _, cells in blocks.values()]), mask.shape)
    for row, x, idx in zip(coords, domain.origin, index):
        row[...] = x + (idx + 0.5) * h
    for (axis, sign), (rows, _) in blocks.items():
        coords[axis, rows] += sign * h / 2.0
    cloud = BoundaryCloud(domain.dim, h, coords.T, np.full(start, h ** (domain.dim - 1)))
    object.__setattr__(cloud, "faces", FaceTable(mask, domain.origin, blocks))
    object.__setattr__(domain, "_boundary", cloud)
    return cloud


def _face_gaps(cloud: BoundaryCloud) -> np.ndarray:
    """Nearest-neighbor gaps of a cloud from :func:`extract_boundary`, from its face table.

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
    and (c + 2s e_a, a, -s).  The faces are taken one (axis, sign) block of
    the face table at a time, so a and s are scalars, every temporary is
    one block in size, and each block writes its own run of rows.  The
    block's coordinates are read in place, as views of the cloud's per-axis
    rows through the block's slice (``coords[a, rows]``).  Presence is one mask gather per
    position over the block.  Each neighbor's coordinates follow
    :func:`extract_boundary`'s formula from its owning cell, and at most
    two axes differ, so the squared distances have the bits of a KD-tree's
    and the gaps are those of its k=2 query.
    """
    faces, n, h = cloud.faces, cloud.dim, cloud.resolution
    present = faces.mask.reshape(-1)
    shape = faces.shape
    strides = [math.prod(shape[x + 1:]) for x in range(n)]
    centre = [x.ravel() for x in _centers_grid(faces.origin, shape, h)]
    gaps = np.empty(len(cloud))
    for (a, s), (rows, flat) in faces.blocks.items():
        # one block of faces, all with outward direction s e_a, and their cells
        cells = np.unravel_index(flat, shape)
        half = s * h / 2.0
        step = s * strides[a]  # flat offset of c + s e_a
        # along a: each face's own coordinate and the neighbors' differences from it
        own = cloud.coords[a, rows]
        ca = cells[a]
        ca2 = ca + 2 * s
        on_grid = (ca2 >= 0) & (ca2 < shape[a])  # c + 2s e_a in the grid
        inner = centre[a][ca] - own
        outer = centre[a][ca + s] - own
        far = centre[a][np.where(on_grid, ca2, ca)] - half - own
        back = centre[a][ca] - half - own
        best = far * far
        best[~(on_grid & present[np.where(on_grid, flat + 2 * step, flat)])] = np.inf
        np.minimum(best, back * back, out=best, where=~present[flat - step])
        inner *= inner
        outer *= outer
        for j in range(1, n):
            b = (a + j) % n
            other = cloud.coords[b, rows]
            for t in (1, -1):
                shift = flat + t * strides[b]
                side = present[shift]  # c + t e_b interior
                corner = present[shift + step]  # c + s e_a + t e_b interior
                beside = centre[b][cells[b] + t]  # the centre coordinate of c + t e_b
                edge = other + t * h / 2.0 - other
                np.minimum(best, inner + edge * edge, out=best, where=~side)
                edge = beside - t * h / 2.0 - other
                np.minimum(best, outer + edge * edge, out=best, where=corner)
                edge = beside - other
                np.minimum(best, edge * edge, out=best, where=side & ~corner)
        np.sqrt(best, out=gaps[rows])
    return gaps


def dilate(domain: GridDomain, eps: float) -> GridDomain:
    """Minkowski sum with the closed eps-ball, discretized on the lattice.

    A cell joins the dilated set when its center lies within eps + h/2 of
    some occupied cell center; the half-cell slack removes the systematic
    undershoot of center-to-center distances (rasterized sets carry their
    outermost half cell).  The grid box is enlarged automatically.
    """
    eps = check_eps(eps)
    if eps == 0:
        return domain
    h = domain.spacing
    pad = np.ceil(eps / h) + 2
    _grid_shape([n + 2 * pad for n in domain.shape])
    mask = np.pad(domain.mask, int(pad))
    return GridDomain(h, domain.origin - pad * h, within_distance(mask, eps + 0.5 * h, h))


def check_eps(eps) -> float:
    """A finite nonnegative width as a float, else InvalidArgumentError."""
    eps = float(eps)
    if not math.isfinite(eps) or eps < 0:
        raise InvalidArgumentError(f"eps must be finite and nonnegative, got {eps!r}")
    return eps


def within_distance(source: np.ndarray, t: float, h: float, strict: bool = False) -> np.ndarray:
    """Cells within distance t (below t if ``strict``) of a true cell of ``source``.

    The distance between cell centres with index offset d is scipy's EDT
    formula ``sqrt(sum((d_a * h) ** 2))`` in float, so the mask equals the
    threshold of scipy's exact Euclidean distance transform of ``~source``
    with ``sampling=h`` bit for bit.  One stated rule goes beyond it: where
    offsets of one squared length fall on both sides of t (a non-dyadic h
    and a t within an ulp of that length), the length counts as within when
    its shortest offset is, while the transform reports whichever nearest
    source it met.  So the mask depends on each cell's squared index
    distance alone.

    Only the capped integer squared distance G to the nearest source is
    formed, one axis at a time (Felzenszwalb & Huttenlocher, Theory of
    Computing 8 (2012)), and a cell is within t when G < K, the cut from
    :func:`_squared_cut`.  Axis 0 takes the distance to the nearest source
    of each column from two running extrema, middle axes take capped
    min-plus passes, and along the contiguous last axis each cell with
    G < K stamps the interval of cells it brings within the cut, clamped to
    its row.  The union of these flat intervals [start, end) is taken in
    int32: each start keeps the largest end stamped there
    (``np.maximum.at``), a running maximum carries the ends forward, and a
    cell is covered when the running maximum passes its own index.
    """
    shape = source.shape
    # past the grid's diagonal every cell is within t of every source
    cut = _squared_cut(min(t, h * (math.hypot(*shape) + 1)), h, source.ndim, strict)
    if cut == 0:
        return np.zeros(shape, dtype=bool)
    reach = math.isqrt(cut - 1)  # the longest offset along one axis
    if reach <= 1:
        return _within_unit(source, cut)
    far = shape[0] + reach + 1
    row = np.arange(shape[0], dtype=np.int32).reshape((-1,) + (1,) * (source.ndim - 1))
    before = _sweep(np.where(source, row, -far), np.maximum)
    after = _sweep(np.where(source, row, shape[0] + far)[::-1], np.minimum)[::-1]
    np.subtract(row, before, out=before)
    np.subtract(after, row, out=after)
    g = np.minimum(before, after, out=before)
    del after  # its last read: interior_region's peak falls by one int32 grid
    np.minimum(g, reach + 1, out=g)  # (reach + 1)^2 >= K: a capped cell stays outside
    g *= g
    for axis in range(1, source.ndim - 1):
        _min_plus(g, axis, reach)
    zero = g == 0
    # a source cell inside a run of source cells along the last axis adds no
    # cell that the run's two ends do not; the run itself is in the mask
    inner = zero.copy()
    inner[..., 1:] &= zero[..., :-1]
    inner[..., :-1] &= zero[..., 1:]
    stamps = g < cut
    stamps &= ~inner
    flat = np.flatnonzero(stamps)
    # half-widths floor(sqrt(K - 1 - G)): float sqrt is exact below 2^52
    half = np.sqrt(cut - 1 - g.reshape(-1)[flat]).astype(np.int64)
    col = flat % shape[-1]
    reach_to = np.zeros(source.size, dtype=np.int32)  # no grid has 2^31 cells (_MAX_GRID_CELLS)
    np.maximum.at(reach_to, flat - np.minimum(half, col),
                  (flat + np.minimum(half, shape[-1] - 1 - col) + 1).astype(np.int32))
    np.maximum.accumulate(reach_to, out=reach_to)
    cover = reach_to > np.arange(source.size, dtype=np.int32)
    return cover.reshape(shape) | zero


def _squared_cut(t: float, h: float, n: int, strict: bool) -> int:
    """Least squared index length K of an n-dimensional offset lying beyond t.

    An offset lies beyond t when its float distance (the formula of
    :func:`within_distance`) exceeds t, or reaches it if ``strict``; a
    length lies beyond t when the least distance of its offsets does.  The
    search starts two below (t/h)^2, which leaves room for the rounding of
    both formulas.
    """
    k = max(int((t / h) ** 2) - 2, 0)
    while True:
        dist = _offset_distances(k, h, n)
        if dist.size and (dist.min() >= t if strict else dist.min() > t):
            return k
        k += 1


def _offset_distances(k: int, h: float, n: int) -> np.ndarray:
    """Float distances of the n-dimensional offsets d >= 0 with |d|^2 = k (the EDT formula)."""
    head = np.indices((math.isqrt(k) + 1,) * (n - 1)).reshape(n - 1, -1)
    rest = k - np.sum(head * head, axis=0)
    last = np.sqrt(np.maximum(rest, 0)).astype(np.int64)
    dt = np.vstack([head, last])[:, last * last == rest] * h
    dt *= dt
    return np.sqrt(np.add.reduce(dt, axis=0))


def _within_unit(source: np.ndarray, cut: int) -> np.ndarray:
    """:func:`within_distance` for a cut K <= 4, where every offset shorter than
    K lies in the unit cube: the source ORed with its shifts by those offsets.
    An offset's squared length counts its nonzero entries, so a cut above the
    dimension takes the whole cube: a separable 3^n box, one axis at a time."""
    out = source.copy()
    if cut > source.ndim:
        for axis in range(source.ndim):
            lead = (slice(None),) * axis
            # a ufunc reads an overlapping operand as it was before the call
            out[lead + (slice(1, None),)] |= out[lead + (slice(0, -1),)]
            out[lead + (slice(0, -1),)] |= out[lead + (slice(1, None),)]
        return out
    for offset in itertools.product((-1, 0, 1), repeat=source.ndim):
        if 0 < sum(o * o for o in offset) < cut:
            dst = tuple(slice(max(-o, 0), s - max(o, 0)) for o, s in zip(offset, source.shape))
            src = tuple(slice(max(o, 0), s + min(o, 0)) for o, s in zip(offset, source.shape))
            out[dst] |= source[src]
    return out


def _sweep(a: np.ndarray, ufunc) -> np.ndarray:
    """``ufunc.accumulate`` along axis 0, in place and a slab at a time, which
    is several times faster than ``accumulate`` along the strided axis."""
    for i in range(1, len(a)):
        ufunc(a[i - 1], a[i], out=a[i])
    return a


def _min_plus(g: np.ndarray, axis: int, reach: int) -> None:
    """g <- min over |d| <= reach of (g shifted by d along ``axis``) + d^2, in place."""
    m = g.shape[axis]
    span = min(reach, m - 1)  # longer shifts leave the grid
    width = [(0, 0)] * g.ndim
    width[axis] = (span, span)
    padded = np.pad(g, width, constant_values=(reach + 1) ** 2)
    lead = (slice(None),) * axis
    tmp = np.empty_like(g)
    for d in range(1, span + 1):
        np.minimum(padded[lead + (slice(span - d, span - d + m),)],
                   padded[lead + (slice(span + d, span + d + m),)], out=tmp)
        tmp += d * d
        np.minimum(g, tmp, out=g)


def volume(domain: GridDomain) -> float:
    """Cell count times h^n."""
    return float(domain.mask.sum()) * domain.spacing ** domain.dim


# ---------------------------------------------------------------------------
# JSON domain specs: {"kind": ..., "params": {...}, "h": ...}

_SPEC_KEYS = {"kind", "params", "h"}
# kind -> (required, optional) parameter names
_PARAM_KEYS = {
    "ball": ({"r"}, {"center"}),
    "box": ({"sides"}, {"corner"}),
    "polygon": ({"vertices"}, set()),
    "annulus": ({"r_outer", "r_inner"}, {"center"}),
}
_SCALAR_PARAMS = {"r", "r_outer", "r_inner"}


def is_json_number(value) -> bool:
    """The number rule of every spec file: an int or a float, not a bool, and finite as a float."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _spec_numbers(value, what: str, scalar: bool):
    """A float (unless ``scalar`` a float array of evenly nested lists) of JSON numbers, else SpecError."""
    # a ragged list keeps lists among the leaves of its object array
    leaves = [value] if scalar else np.asarray(value, dtype=object).ravel()
    if not all(map(is_json_number, leaves)):
        raise SpecError(f"{what} must be {'a number' if scalar else 'an array of numbers'}, got {value!r}")
    return float(value) if scalar else np.asarray(value, dtype=float)


def domain_from_spec(spec: dict) -> GridDomain:
    """Build a domain from its JSON description (strict: unknown keys rejected)."""
    if not isinstance(spec, dict):
        raise SpecError("domain spec must be an object")
    unknown = set(spec) - _SPEC_KEYS
    if unknown:
        raise SpecError(f"unknown domain spec keys: {sorted(unknown)}")
    for key in ("kind", "params", "h"):
        if key not in spec:
            raise SpecError(f"domain spec is missing '{key}'")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in _PARAM_KEYS:
        raise SpecError(f"unknown domain kind '{kind}'")
    params = spec["params"]
    if not isinstance(params, dict):
        raise SpecError("domain params must be an object")
    required, optional = _PARAM_KEYS[kind]
    unknown = set(params) - required - optional
    if unknown:
        raise SpecError(f"unknown parameters for kind '{kind}': {sorted(unknown)}")
    missing = required - set(params)
    if missing:
        raise SpecError(f"kind '{kind}' is missing parameters {sorted(missing)}")
    h = _spec_numbers(spec["h"], "h", scalar=True)
    p = {k: _spec_numbers(v, k, scalar=k in _SCALAR_PARAMS) for k, v in params.items()}
    if kind == "ball":
        return make_ball(p.get("center", [0.0, 0.0]), p["r"], h)
    if kind == "box":
        return make_box(p.get("corner", np.zeros_like(p["sides"])), p["sides"], h)
    if kind == "annulus":
        return make_annulus(p.get("center", [0.0, 0.0]), p["r_outer"], p["r_inner"], h)
    return rasterize_polygon(p["vertices"], h)


def describe_spec(spec: dict) -> str:
    """Short deterministic label used in reports."""
    if "kind" not in spec or not isinstance(spec.get("params"), dict):
        raise SpecError("domain spec needs a 'kind' and a 'params' object")
    params = ",".join(f"{k}={spec['params'][k]}" for k in sorted(spec["params"]))
    return f"{spec['kind']}({params})"


def load_json(path):
    """Read a JSON spec file; a missing or malformed file is a SpecError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise SpecError(f"file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"malformed JSON in {path}: line {exc.lineno} column {exc.colno}") from exc
    except RecursionError as exc:
        raise SpecError(f"JSON in {path} nests too deeply") from exc


load_domain_spec = load_json
