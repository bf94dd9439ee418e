"""Rasterized bounded domains: masks, boundary clouds, dilation, volume.

A domain is a boolean mask over a regular grid with spacing h; the cell with
index (i, j[, k]) has its center at origin + (index + 0.5) * h.  Every mask
keeps at least a one-cell false margin on each face, so the represented set
is strictly inside the grid box.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import ndimage

from .errors import EmptyDomainError, InvalidArgumentError, SpecError

__all__ = [
    "GridDomain",
    "BoundaryCloud",
    "make_ball",
    "make_box",
    "make_annulus",
    "rasterize_polygon",
    "extract_boundary",
    "dilate",
    "volume",
    "domain_from_spec",
    "load_domain",
    "save_domain",
    "serialize_domain",
    "parse_domain_text",
]


@dataclass(frozen=True)
class GridDomain:
    """A bounded open set stored as a boolean cell mask.

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
        """Centers of all true cells, shape (N, n)."""
        idx = np.argwhere(self.mask)
        return self.origin + (idx + 0.5) * self.spacing

    def volume(self) -> float:
        return float(self.mask.sum()) * self.spacing ** self.dim

    def same_grid(self, other: "GridDomain") -> bool:
        return (
            self.dim == other.dim
            and self.shape == other.shape
            and abs(self.spacing - other.spacing) <= 1e-12 * self.spacing
            and np.allclose(self.origin, other.origin, rtol=0, atol=1e-12)
        )

    def translated(self, shift: Sequence[float]) -> "GridDomain":
        return GridDomain(self.spacing, self.origin + np.asarray(shift, float), self.mask)


@dataclass(frozen=True)
class BoundaryCloud:
    """Sampled boundary: points with per-point (n-1)-measure weights.

    Clouds produced by :func:`extract_boundary` also carry, for each point,
    the interior cell it sits on and the outward face direction; synthetic
    clouds may leave those fields as None.
    """

    dim: int
    resolution: float
    points: np.ndarray
    weights: np.ndarray
    face_cells: np.ndarray | None = None
    face_axes: np.ndarray | None = None
    face_signs: np.ndarray | None = None

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float).reshape(-1, self.dim).copy()
        weights = np.asarray(self.weights, dtype=float).reshape(-1).copy()
        if len(points) != len(weights):
            raise InvalidArgumentError("points and weights must have equal length")
        if (weights < 0).any():
            raise InvalidArgumentError("weights must be nonnegative")
        points.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def total_weight(self) -> float:
        return float(np.sum(self.weights))


def _empty_grid(low, high, h, pad_cells=2):
    """Grid box covering [low, high] with a false margin of pad_cells."""
    low = np.asarray(low, float)
    high = np.asarray(high, float)
    dims = np.ceil((high - low) / h).astype(int) + 2 * pad_cells
    origin = low - pad_cells * h
    return origin, tuple(dims)


def _centers_grid(origin, shape, h):
    axes = [origin[a] + (np.arange(shape[a]) + 0.5) * h for a in range(len(shape))]
    return np.meshgrid(*axes, indexing="ij")


def make_ball(center: Sequence[float], radius: float, h: float) -> GridDomain:
    """Rasterize the open ball: cells whose center lies strictly inside."""
    center = np.asarray(center, dtype=float)
    if center.shape not in ((2,), (3,)):
        raise InvalidArgumentError("center must have 2 or 3 components")
    if radius <= 0 or h <= 0:
        raise InvalidArgumentError("radius and spacing must be positive")
    if h >= radius:
        raise InvalidArgumentError("spacing must be smaller than the radius")
    origin, shape = _empty_grid(center - radius, center + radius, h)
    grids = _centers_grid(origin, shape, h)
    dist2 = sum((g - c) ** 2 for g, c in zip(grids, center))
    mask = dist2 < radius ** 2
    return GridDomain(h, origin, mask)


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
    origin, shape = _empty_grid(center - r_outer, center + r_outer, h)
    grids = _centers_grid(origin, shape, h)
    dist2 = sum((g - c) ** 2 for g, c in zip(grids, center))
    mask = (dist2 < r_outer ** 2) & (dist2 >= r_inner ** 2)
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
    xc = origin[0] + (np.arange(shape[0]) + 0.5) * h
    yc = origin[1] + (np.arange(shape[1]) + 0.5) * h
    XC = xc[:, None]
    YC = yc[None, :]
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

    Domains and clouds are immutable, so the cloud is built once per domain,
    cached on it, and shared by every caller.
    """
    cached = vars(domain).get("_boundary")
    if cached is not None:
        return cached
    if not domain.mask.any():
        raise EmptyDomainError("cannot extract the boundary of an empty mask")
    h = domain.spacing
    n = domain.dim
    points, cells, axes_list, signs = [], [], [], []
    for axis in range(n):
        for sign in (1, -1):
            neighbor = np.roll(domain.mask, -sign, axis=axis)
            faces = domain.mask & ~neighbor  # margin is false, so roll cannot wrap junk in
            idx = np.argwhere(faces)
            if len(idx) == 0:
                continue
            pts = domain.origin + (idx + 0.5) * h
            pts[:, axis] += sign * h / 2.0
            points.append(pts)
            cells.append(idx)
            axes_list.append(np.full(len(idx), axis, dtype=np.int64))
            signs.append(np.full(len(idx), sign, dtype=np.int64))
    points = np.concatenate(points, axis=0)
    cells = np.concatenate(cells, axis=0)
    axes_arr = np.concatenate(axes_list)
    signs_arr = np.concatenate(signs)
    weights = np.full(len(points), h ** (n - 1))
    for arr in (cells, axes_arr, signs_arr):
        arr.setflags(write=False)
    cloud = BoundaryCloud(
        dim=n,
        resolution=h,
        points=points,
        weights=weights,
        face_cells=cells,
        face_axes=axes_arr,
        face_signs=signs_arr,
    )
    object.__setattr__(domain, "_boundary", cloud)
    return cloud


def dilate(domain: GridDomain, eps: float) -> GridDomain:
    """Minkowski sum with the closed eps-ball, discretized on the lattice.

    A cell joins the dilated set when its center lies within eps + h/2 of
    some occupied cell center; the half-cell slack removes the systematic
    undershoot of center-to-center distances (rasterized sets carry their
    outermost half cell).  The grid box is enlarged automatically.
    """
    if eps < 0:
        raise InvalidArgumentError("eps must be nonnegative")
    if eps == 0:
        return domain
    h = domain.spacing
    pad = int(np.ceil(eps / h)) + 2
    mask = np.pad(domain.mask, pad)
    dist = ndimage.distance_transform_edt(~mask, sampling=h)
    new_mask = dist <= eps + 0.5 * h
    return GridDomain(h, domain.origin - pad * h, new_mask)


def volume(domain: GridDomain) -> float:
    """Cell count times h^n."""
    return domain.volume()


# ---------------------------------------------------------------------------
# serialization: text format with a header line and run-length-encoded mask


def serialize_domain(domain: GridDomain) -> str:
    dims = " ".join(str(s) for s in domain.shape)
    org = " ".join(repr(float(v)) for v in domain.origin)
    header = f"GMT-GRID v1 {domain.dim} {domain.spacing!r} {org} {dims}"
    flat = domain.mask.ravel()
    if flat.size == 0:
        runs = []
    else:
        changes = np.flatnonzero(np.diff(flat.view(np.int8))) + 1
        bounds = np.concatenate([[0], changes, [flat.size]])
        runs = list(np.diff(bounds))
        if flat[0]:
            runs = [0] + runs  # runs always start with a false run
    body_lines = []
    line = []
    for r in runs:
        line.append(str(int(r)))
        if len(line) >= 32:
            body_lines.append(" ".join(line))
            line = []
    if line:
        body_lines.append(" ".join(line))
    return "\n".join([header] + body_lines) + "\n"


def parse_domain_text(text: str) -> GridDomain:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("GMT-GRID v1 "):
        raise SpecError("not a GMT-GRID v1 file")
    fields = lines[0].split()
    n = int(fields[2])
    h = float(fields[3])
    origin = np.array([float(v) for v in fields[4 : 4 + n]])
    dims = tuple(int(v) for v in fields[4 + n : 4 + 2 * n])
    runs = [int(v) for tok in lines[1:] for v in tok.split()]
    total = int(np.prod(dims))
    flat = np.zeros(total, dtype=bool)
    pos = 0
    value = False
    for r in runs:
        if r:
            flat[pos : pos + r] = value
        pos += r
        value = not value
    if pos != total:
        raise SpecError("run-length data does not match grid size")
    return GridDomain(h, origin, flat.reshape(dims))


def save_domain(domain: GridDomain, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_domain(domain))


def load_domain(path) -> GridDomain:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_domain_text(fh.read())


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


def spec_number(value, what: str, scalar: bool = True):
    """A finite float (a float array unless ``scalar``) from an input value, else SpecError."""
    try:
        out = float(value) if scalar else np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"{what} must be numeric, got {value!r}") from exc
    if not np.isfinite(out).all():
        raise SpecError(f"{what} must be finite, got {value!r}")
    return out


def domain_from_spec(spec: dict, h_override: float | None = None) -> GridDomain:
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
    h = spec_number(h_override if h_override is not None else spec["h"], "h")
    p = {k: spec_number(v, k, scalar=k in _SCALAR_PARAMS) for k, v in params.items()}
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


load_domain_spec = load_json
