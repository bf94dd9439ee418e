"""Discrete function calculus on grid domains.

Gradients use forward differences with the Euclidean magnitude; cells whose
forward neighbor is exterior difference toward the trace value at the
adjacent boundary face (half-spacing step), so affine functions have exact
gradients up to the boundary.  All reductions go through numpy's pairwise
summation, which keeps results bitwise reproducible for a fixed shape.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .domains import (
    BoundaryCloud,
    GridDomain,
    _lattice,
    check_eps,
    dilate,
    extract_boundary,
    parse_domain_text,
    serialize_domain,
    volume,
    within_distance,
)
from .errors import (
    InvalidArgumentError,
    NoTraceError,
    ResolutionError,
    SpecError,
)
from .expressions import Expression
from .hausdorff import Partition, unit_ball_volume

__all__ = [
    "GridFunction",
    "Mollifier",
    "from_expression",
    "constant_function",
    "indicator_function",
    "grad_l1",
    "grad_l2_squared",
    "lq_norm",
    "boundary_integral",
    "pointwise_min",
    "abs_value",
    "shell_mass",
    "shell_mass_limit",
    "barrier",
    "shell_gradient_discrete",
    "truncate",
    "total_variation",
    "build_mollifier",
    "fft_convolve",
    "mollify",
    "l1_distance",
    "minkowski_steiner",
    "SteinerResult",
    "interior_region",
    "restrict_to_domain",
    "save_function",
    "load_function",
]


@dataclass(frozen=True)
class GridFunction:
    """Cell values on a domain plus an optional boundary trace.

    ``values`` is a full-grid array that is zero outside the mask; ``trace``
    holds one value per cloud point.  ``lipschitz``, when given, declares a
    modulus of continuity omega(t) = lipschitz * t which is checked against
    the trace at construction and consumed by the proof tracer.
    """

    domain: GridDomain
    values: np.ndarray
    cloud: BoundaryCloud | None = None
    trace: np.ndarray | None = None
    lipschitz: float | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).copy()
        if values.shape != self.domain.shape:
            raise InvalidArgumentError("values must cover the full grid box")
        if not np.isfinite(values[self.domain.mask]).all():
            raise InvalidArgumentError("values must be finite on every interior cell")
        if self.lipschitz is not None and not self.lipschitz >= 0:
            raise InvalidArgumentError("lipschitz must be nonnegative")
        values[~self.domain.mask] = 0.0
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if self.trace is not None:
            if self.cloud is None:
                raise InvalidArgumentError("a trace requires its boundary cloud")
            trace = np.asarray(self.trace, dtype=float).copy()
            if trace.shape != (len(self.cloud),):
                raise InvalidArgumentError("trace length must match the cloud")
            trace.setflags(write=False)
            object.__setattr__(self, "trace", trace)
            if self.lipschitz is not None and self.cloud.face_cells is not None:
                self._check_trace_consistency()

    def _check_trace_consistency(self):
        h = self.domain.spacing
        n = self.domain.dim
        owners = tuple(self.cloud.face_cells.T)
        nearest = self.values[owners]
        bound = self.lipschitz * h * math.sqrt(n) + 1e-12
        gap = np.abs(self.trace - nearest)
        if gap.max() > bound:
            raise InvalidArgumentError(
                f"trace inconsistent with declared modulus: gap {gap.max():.3e} > {bound:.3e}"
            )

    @property
    def h(self) -> float:
        return self.domain.spacing

    def max_abs(self) -> float:
        m = float(np.max(np.abs(self.values[self.domain.mask]), initial=0.0))
        if self.trace is not None and len(self.trace):
            m = max(m, float(np.max(np.abs(self.trace))))
        return m


@dataclass(frozen=True)
class Mollifier:
    """Nonnegative radial kernel of support radius 1/k and unit mass."""

    k: int
    spacing: float
    kernel: np.ndarray

    def __post_init__(self):
        kernel = np.asarray(self.kernel, dtype=float).copy()
        if (kernel < 0).any():
            raise InvalidArgumentError("mollifier kernel must be nonnegative")
        mass = float(np.sum(kernel)) * self.spacing ** kernel.ndim
        if not math.isclose(mass, 1.0, rel_tol=1e-12):
            raise InvalidArgumentError("mollifier kernel must have unit mass")
        kernel.setflags(write=False)
        object.__setattr__(self, "kernel", kernel)


# ---------------------------------------------------------------------------
# constructors


def from_expression(
    domain: GridDomain,
    expr: str | Expression,
    cloud: BoundaryCloud | None = None,
    lipschitz: float | None = None,
) -> GridFunction:
    """Evaluate an expression at cell centers and at boundary cloud points.

    Trace values come from the defining expression evaluated at the cloud
    points, never from interior extrapolation.
    """
    if isinstance(expr, str):
        expr = Expression(expr)
    if cloud is None:
        cloud = extract_boundary(domain)
    values = np.zeros(domain.shape)
    values[domain.mask] = expr(domain.cell_centers())
    trace = np.broadcast_to(np.asarray(expr(cloud.points), dtype=float), len(cloud))
    fn = GridFunction(domain, values, cloud, trace, lipschitz)
    fn.metadata["expr"] = expr.text
    return fn


def constant_function(domain: GridDomain, value: float, cloud: BoundaryCloud | None = None) -> GridFunction:
    if cloud is None:
        cloud = extract_boundary(domain)
    values = np.where(domain.mask, float(value), 0.0)
    trace = np.full(len(cloud), float(value))
    fn = GridFunction(domain, values, cloud, trace, lipschitz=0.0)
    fn.metadata["expr"] = repr(float(value))
    return fn


def indicator_function(domain: GridDomain, cloud: BoundaryCloud | None = None) -> GridFunction:
    fn = constant_function(domain, 1.0, cloud)
    fn.metadata["expr"] = "indicator"
    return fn


# ---------------------------------------------------------------------------
# gradients and norms


def _face_table(cloud: BoundaryCloud, shape: tuple) -> dict:
    """Per (axis, sign): the cloud rows of those boundary faces and the flat
    indices, in a grid of ``shape``, of the interior cells they sit on.

    A pure function of the immutable cloud and the grid it indexes, so it is
    built once and cached on the cloud read-only, like its boundary measures.
    """
    cache = vars(cloud).setdefault("_face_tables", {})
    if shape not in cache:
        flat = np.ravel_multi_index(tuple(cloud.face_cells.T), shape)
        table = {}
        for axis, sign in itertools.product(range(len(shape)), (1, -1)):
            rows = np.flatnonzero((cloud.face_axes == axis) & (cloud.face_signs == sign))
            table[axis, sign] = (rows, flat[rows])
            for arr in table[axis, sign]:
                arr.setflags(write=False)
        cache[shape] = table
    return cache[shape]


def _grad_stencil(mask: np.ndarray, h: float, values: np.ndarray, trace: np.ndarray, faces: dict) -> np.ndarray:
    """Squared forward-difference gradient magnitude per cell (uncached).

    Along each axis, cells whose forward neighbour is interior take the
    difference from a shifted slice; cells on a +face difference toward the
    trace there (half spacing) instead.  Cells on a -face add the one-sided
    difference toward that trace as an extra component, so jumps against the
    boundary are never invisible to the scheme.  Per axis the component is
    squared and added before the extra one.
    """
    mag2 = np.zeros(mask.shape)
    flat_mag2 = mag2.reshape(-1)
    flat_vals = values.reshape(-1)
    for axis in range(mask.ndim):
        head = (slice(None),) * axis + (slice(0, -1),)
        tail = (slice(None),) * axis + (slice(1, None),)
        comp = np.zeros(mask.shape)
        np.divide(np.diff(values, axis=axis), h, out=comp[head], where=mask[head] & mask[tail])
        rows, cells = faces[axis, 1]
        comp.reshape(-1)[cells] = (trace[rows] - flat_vals[cells]) / (h / 2.0)
        mag2 += np.multiply(comp, comp, out=comp)
        rows, cells = faces[axis, -1]
        extra = (flat_vals[cells] - trace[rows]) / (h / 2.0)
        flat_mag2[cells] += extra * extra
    return mag2


def _gradient_mag_squared(u: GridFunction) -> np.ndarray:
    """Squared gradient magnitude per cell (see :func:`_grad_stencil`).

    Functions are immutable, so the result is computed once per function and
    cached on it read-only.
    """
    cached = vars(u).get("_grad_mag2")
    if cached is not None:
        return cached
    cloud = u.cloud
    if cloud is None or u.trace is None or cloud.face_cells is None:
        raise NoTraceError("operation needs a boundary trace with face metadata")
    mag2 = _grad_stencil(u.domain.mask, u.h, u.values, u.trace, _face_table(cloud, u.domain.shape))
    mag2.setflags(write=False)
    object.__setattr__(u, "_grad_mag2", mag2)
    return mag2


def grad_l1(u: GridFunction) -> float:
    """Integral of the Euclidean gradient magnitude over the domain."""
    mag2 = _gradient_mag_squared(u)
    return float(np.sum(np.sqrt(mag2[u.domain.mask]))) * u.h ** u.domain.dim


def grad_l2_squared(u: GridFunction) -> float:
    """Integral of |grad u|^2 over the domain."""
    mag2 = _gradient_mag_squared(u)
    return float(np.sum(mag2[u.domain.mask])) * u.h ** u.domain.dim


def lq_norm(u: GridFunction, q: float) -> float:
    """(sum |u|^q h^n)^(1/q) over the interior cells."""
    if q < 1:
        raise InvalidArgumentError("q must be at least 1")
    vals = np.abs(u.values[u.domain.mask])
    return float(np.sum(vals ** q) * u.h ** u.domain.dim) ** (1.0 / q)


def boundary_integral(u: GridFunction, calibration: float | None = None) -> float:
    """Sum of |trace| against the cloud weights.

    ``calibration`` rescales the raw face weights so their total matches an
    externally estimated boundary measure; the caller records the factor.
    """
    if u.trace is None or u.cloud is None:
        raise NoTraceError("boundary integral needs a trace")
    factor = 1.0 if calibration is None else float(calibration)
    return float(np.sum(np.abs(u.trace) * u.cloud.weights)) * factor


# ---------------------------------------------------------------------------
# pointwise lattice operations


def pointwise_min(u: GridFunction, v: GridFunction) -> GridFunction:
    if not u.domain.same_grid(v.domain) or not np.array_equal(u.domain.mask, v.domain.mask):
        raise InvalidArgumentError("pointwise operations need identical domains")
    values = np.minimum(u.values, v.values)
    trace = None
    if u.trace is not None and v.trace is not None and len(u.trace) == len(v.trace):
        trace = np.minimum(u.trace, v.trace)
    return GridFunction(u.domain, values, u.cloud if trace is not None else None, trace)


def abs_value(u: GridFunction) -> GridFunction:
    """|u|; a function with no negative value or trace is returned as it is."""
    if not (u.values < 0).any() and (u.trace is None or not (u.trace < 0).any()):
        return u
    trace = None if u.trace is None else np.abs(u.trace)
    return GridFunction(u.domain, np.abs(u.values), u.cloud if trace is not None else None,
                        trace, u.lipschitz)


# ---------------------------------------------------------------------------
# spherical shells and barriers


# the shell formulas broadcast over radii and heights; float_power takes C pow
# per element as ** on one float does, so each shell keeps its own bits


def shell_mass(r, s: float, height, n: int):
    """Gradient mass of a linear ramp of rise ``height`` on the shell [r, r+s]."""
    if s <= 0:
        raise InvalidArgumentError("shell width s must be positive")
    if np.any(np.asarray(r) < 0) or np.any(np.asarray(height) < 0):
        raise InvalidArgumentError("radius and height must be nonnegative")
    omega = unit_ball_volume(n)
    return height / s * omega * (np.float_power(r + s, n) - np.float_power(r, n))


def shell_mass_limit(r, height, n: int):
    """Limit of shell_mass as the width shrinks: height * n * omega_n * r^(n-1)."""
    if np.any(np.asarray(r) < 0) or np.any(np.asarray(height) < 0):
        raise InvalidArgumentError("radius and height must be nonnegative")
    return height * n * unit_ball_volume(n) * np.float_power(r, n - 1)


def _index_box(domain: GridDomain, center: np.ndarray, radius):
    """Cell index bounds [lo, hi) per axis covering B(center, radius), unclipped; broadcasts."""
    h = domain.spacing
    lo = np.floor((center - radius - domain.origin) / h - 1).astype(int)
    hi = np.ceil((center + radius - domain.origin) / h + 1).astype(int)
    return lo, hi


def _lattice_distance(domain: GridDomain, centers: np.ndarray, lo, hi) -> np.ndarray:
    """Distance from each of B centres to the cell centres with indices in its [lo, hi).

    ``centers``, ``lo`` and ``hi`` are (B, n); the result is (B, *width), with
    every box padded to the widest one and ``inf`` on the padding (see
    ``domains._lattice``).
    """
    total = 0
    for a, x in enumerate(_lattice(domain.origin, domain.spacing, lo, hi)):
        total = total + (x - centers[:, a].reshape((-1,) + (1,) * domain.dim)) ** 2
    return np.sqrt(total)


# lattice points per block of stacked windows: 2 MB per float array, in 3D too
_BLOCK_POINTS = 1 << 18


def _window_blocks(domain: GridDomain, centers: np.ndarray, lo, hi):
    """Yield (slice of the centres, their window distances) in blocks of bounded size."""
    block = max(1, _BLOCK_POINTS // max(1, int(np.prod(np.max(hi - lo, axis=0, initial=0)))))
    for start in range(0, len(centers), block):
        b = slice(start, start + block)
        yield b, _lattice_distance(domain, centers[b], lo[b], hi[b])


def _ramp(dist, diam, s: float, height):
    """Barrier ramp of a distance: 0 up to ``diam``, linear up to ``height`` at ``diam + s``."""
    return height * np.clip((dist - diam) / s, 0.0, 1.0)


def barrier(
    x_c,
    diam: float,
    s: float,
    height: float,
    domain: GridDomain,
    cloud: BoundaryCloud | None = None,
    sentinel: float | None = None,
) -> GridFunction:
    """Linear ramp of rise ``height`` on the shell around B(x_c, diam).

    Inside the ball the barrier vanishes; on the shell of width s it climbs
    to ``height``; outside the closed shell it takes a large finite sentinel
    standing in for an infinite value (recorded in metadata) so that a
    pointwise minimum discards it.
    """
    if s <= 0 or diam < 0 or height < 0:
        raise InvalidArgumentError("need s > 0, diam >= 0, height >= 0")
    x_c = np.asarray(x_c, dtype=float)
    if sentinel is None:
        sentinel = max(1.0e6, 1.0e3 * (height + 1.0))
    dist = _lattice_distance(domain, x_c[None], np.zeros((1, domain.dim), int), np.array([domain.shape]))[0]
    values = np.where(dist <= diam + s, _ramp(dist, diam, s, height), sentinel)
    trace = None
    if cloud is not None:
        pd = np.linalg.norm(cloud.points - x_c, axis=1)
        trace = np.where(pd <= diam + s, _ramp(pd, diam, s, height), sentinel)
    fn = GridFunction(domain, values, cloud if trace is not None else None, trace)
    fn.metadata["sentinel"] = sentinel
    return fn


def shell_gradient_discrete(x_c, diam, s: float, height, domain: GridDomain):
    """Discrete gradient mass of the capped barrier over its full shell.

    Computed on an unclipped virtual lattice aligned with the domain grid
    (the shell may extend beyond both the domain and its grid box),
    matching the analytic ``shell_mass`` of the same parameters.  Given a
    stack of B centres (B, n) with B diameters and heights, it evaluates the
    shells on stacked windows and returns their B masses, each the same as
    for that shell alone.
    """
    x_c = np.asarray(x_c, dtype=float)
    centers = x_c.reshape(-1, domain.dim)
    per_shell = (-1,) + (1,) * domain.dim
    diams, heights = (np.broadcast_to(np.asarray(v, dtype=float), len(centers)).reshape(per_shell)
                      for v in (diam, height))
    lo, hi = _index_box(domain, centers, (diams + s + 3 * domain.spacing).reshape(-1, 1))
    masses = np.concatenate([_forward_tv(_ramp(dist, diams[b], s, heights[b]), domain.spacing, hi[b] - lo[b])
                             for b, dist in _window_blocks(domain, centers, lo, hi)])
    return masses if x_c.ndim == 2 else float(masses[0])


def interior_region(domain: GridDomain, eps: float) -> np.ndarray:
    """Cells whose eps-ball stays inside the domain (conservative mask): those
    at least eps + h/2 from every exterior cell centre."""
    h = domain.spacing
    return ~within_distance(~domain.mask, check_eps(eps) + 0.5 * h, h, strict=True)


def _barriers(u: GridFunction, part: Partition, eps: float):
    """The barrier rule: cell C's barrier is centred at x_C, has ball diameter
    2 * rd(C) and rises to trace(x_C) + eps; returns (centres, diams, heights)."""
    return part.x_c, 2.0 * part.rd, u.trace[part.x_index] + eps


def truncate(u: GridFunction, part: Partition, eps: float, s: float) -> GridFunction:
    """Cut u down with boundary barriers: min(u, inf over cells of barrier).

    Barrier heights are trace(x_C) + eps with ball parameter 2 * rd(C).
    The result satisfies 0 <= out <= u, equals u wherever the eps-ball fits
    inside the domain, and vanishes on all cells within one spacing of the
    boundary (discrete vanishing trace).

    All barriers are evaluated in one pass: their windows (clipped to the
    grid box) are stacked in blocks of bounded size, and the closed shells
    are folded in with an unbuffered minimum, which is exact in any order.
    """
    if u.trace is None or u.cloud is None:
        raise NoTraceError("truncate needs a boundary trace")
    dom = u.domain
    mask = dom.mask
    if (u.values[mask] < 0).any() or (u.trace < 0).any():
        raise InvalidArgumentError("truncate expects a nonnegative function")
    if not 0 < s < part.delta / 2:
        raise InvalidArgumentError("need 0 < s < delta/2 for the partition's delta")
    centers, diams, heights = _barriers(u, part, eps)
    reach = diams + s

    out = u.values.copy()
    lo, hi = _index_box(dom, centers, reach[:, None])
    lo, hi = np.maximum(lo, 0), np.minimum(hi, dom.shape)
    for b, dist in _window_blocks(dom, centers, lo, hi):
        inside = dist <= reach[b].reshape((-1,) + (1,) * dom.dim)
        which, *offsets = np.nonzero(inside)
        cell = b.start + which
        flat = np.ravel_multi_index(tuple(lo[cell, a] + offsets[a] for a in range(dom.dim)), dom.shape)
        np.minimum.at(out.reshape(-1), flat, _ramp(dist[inside], diams[cell], s, heights[cell]))

    # candidate trace points per cell; the slack absorbs the tree's own rounding
    pts = u.cloud.points
    candidates = cKDTree(pts).query_ball_point(centers, reach * (1.0 + 1e-9), return_sorted=False)
    rows = np.fromiter(itertools.chain.from_iterable(candidates), dtype=np.intp)
    cell = np.repeat(np.arange(len(centers)), [len(c) for c in candidates])
    pd = np.linalg.norm(pts[rows] - centers[cell], axis=1)
    near = pd <= reach[cell]
    cell = cell[near]
    trace_out = u.trace.copy()
    np.minimum.at(trace_out, rows[near], _ramp(pd[near], diams[cell], s, heights[cell]))
    # discrete vanishing trace: zero out the collar next to the boundary
    collar = mask & within_distance(~mask, 1.5 * dom.spacing, dom.spacing)
    out[collar] = 0.0
    out[~mask] = 0.0
    result = GridFunction(dom, out, u.cloud, trace_out)
    result.metadata.update({"eps": eps, "s": s})
    return result


# ---------------------------------------------------------------------------
# total variation, mollification, perimeter


def total_variation(u: GridFunction) -> float:
    """Isotropic discrete TV of u extended by zero over the whole grid box."""
    return float(_forward_tv(u.values[None], u.domain.spacing, np.array([u.domain.shape]))[0])


def _forward_tv(v: np.ndarray, h: float, widths: np.ndarray) -> np.ndarray:
    """Isotropic forward-difference TV of stacked grid arrays (Chambolle, JMIV 20 (2004)).

    ``v`` stacks B arrays padded to one shape, and row i of ``widths`` is
    array i's own shape.  Along each axis an array's last slice has no
    forward neighbour and adds nothing: the padding must repeat the values
    on each array's edge (the ramp's cap, for barrier shells), so a
    difference into it is zero.  Each array is summed over its own cells in
    its own order, so every TV is the same as for that array alone.
    """
    n = v.ndim - 1
    total = np.zeros_like(v)
    for a in range(n):
        d = np.diff(v, axis=a + 1)
        total[(slice(None),) * (a + 1) + (slice(0, -1),)] += d * d
    roots = np.sqrt(total)
    sums = [np.sum(np.ascontiguousarray(r[tuple(slice(0, k) for k in w)])) for r, w in zip(roots, widths)]
    # raw differences carry one factor of h less than the gradient
    return np.array(sums) * h ** (n - 1)


def build_mollifier(k: int, spacing: float, dim: int) -> Mollifier:
    """Radial tent kernel of support radius 1/k, renormalized to unit mass."""
    if k < 1:
        raise InvalidArgumentError("mollifier index must be a positive integer")
    radius = 1.0 / k
    if radius < 2 * spacing:
        raise ResolutionError("kernel support 1/k must be at least two cells wide")
    m = int(math.floor(radius / spacing))
    axes = [np.arange(-m, m + 1) * spacing for _ in range(dim)]
    grids = np.meshgrid(*axes, indexing="ij")
    dist = np.sqrt(sum(g * g for g in grids))
    kernel = np.clip(1.0 - k * dist, 0.0, None)
    kernel /= np.sum(kernel) * spacing ** dim
    return Mollifier(k=k, spacing=spacing, kernel=kernel)


def fft_convolve(a: np.ndarray, b: np.ndarray, same: bool = False) -> np.ndarray:
    """Linear convolution of two real arrays with the same number of axes.

    The full output has shape ``a.shape + b.shape - 1``; ``same=True`` crops it
    to ``a.shape``, centred on ``a`` (the "full" and "same" modes of
    ``scipy.signal.fftconvolve``).  Both arrays are zero-padded on every axis
    to a fast real-FFT length of at least the full output, so the product of
    their real FFTs is the linear convolution, not a circular one.
    """
    from scipy import fft  # first use only: not every command convolves

    full = [n + m - 1 for n, m in zip(a.shape, b.shape)]
    fshape = [fft.next_fast_len(n, real=True) for n in full]
    axes = tuple(range(a.ndim))
    spectrum = fft.rfftn(a, fshape, axes=axes) * fft.rfftn(b, fshape, axes=axes)
    conv = fft.irfftn(spectrum, fshape, axes=axes)
    shape = a.shape if same else full
    start = [(n - s) // 2 for n, s in zip(full, shape)]
    return conv[tuple(slice(i, i + s) for i, s in zip(start, shape))]


def mollify(u: GridFunction, k: int) -> GridFunction:
    """Convolution with the index-k mollifier on an enlarged grid box.

    Mass is preserved exactly up to rounding, and the discrete total
    variation never increases (the kernel has unit mass and the grid box is
    padded so the convolution is never clipped).  The convolution is one
    real FFT product, whose rounding leaves noise of order 1e-16 of the peak
    on cells the kernel never reaches; values below 1e-13 of the peak are
    scrubbed to zero so the support of the result stays sharp.
    """
    mol = build_mollifier(k, u.domain.spacing, u.domain.dim)
    m = (mol.kernel.shape[0] - 1) // 2
    pad = m + 2
    v = np.pad(u.values, pad)
    weights = mol.kernel * u.domain.spacing ** u.domain.dim  # discrete weights sum to 1
    conv = fft_convolve(v, weights, same=True)
    tiny = 1e-13 * float(np.max(np.abs(conv), initial=0.0))
    conv[np.abs(conv) < tiny] = 0.0
    support = conv != 0.0
    mask = support | np.pad(u.domain.mask, pad)
    new_dom = GridDomain(u.domain.spacing, u.domain.origin - pad * u.domain.spacing, mask)
    fn = GridFunction(new_dom, conv)
    fn.metadata["mollifier_k"] = k
    return fn


def l1_distance(u: GridFunction, v: GridFunction) -> float:
    """L1 distance of two zero-extended functions (grids must be aligned)."""
    h = u.domain.spacing
    if abs(v.domain.spacing - h) > 1e-12 * h:
        raise InvalidArgumentError("functions live on different grid spacings")
    lo_phys = np.minimum(u.domain.origin, v.domain.origin)
    iu = np.rint((u.domain.origin - lo_phys) / h).astype(int)
    iv = np.rint((v.domain.origin - lo_phys) / h).astype(int)
    if not (
        np.allclose(u.domain.origin, lo_phys + iu * h, atol=1e-9 * h)
        and np.allclose(v.domain.origin, lo_phys + iv * h, atol=1e-9 * h)
    ):
        raise InvalidArgumentError("grids are not aligned")
    dims = np.maximum(iu + np.array(u.domain.shape), iv + np.array(v.domain.shape))
    a = np.zeros(tuple(dims))
    b = np.zeros(tuple(dims))
    a[tuple(slice(o, o + s) for o, s in zip(iu, u.domain.shape))] = u.values
    b[tuple(slice(o, o + s) for o, s in zip(iv, v.domain.shape))] = v.values
    return float(np.sum(np.abs(a - b))) * h ** u.domain.dim


@dataclass(frozen=True)
class SteinerResult:
    quotients: list  # (eps, quotient) pairs, eps descending
    extrapolated: float | None

    @property
    def perimeter_estimate(self) -> float:
        if self.extrapolated is not None:
            return self.extrapolated
        return self.quotients[-1][1]


def minkowski_steiner(domain: GridDomain, eps_list) -> SteinerResult:
    """Volume-growth difference quotients (vol(D + eps B) - vol(D)) / eps.

    ``eps_list`` must be sorted descending and every entry must exceed 2h.
    With at least three entries a Richardson extrapolation is included and
    becomes the perimeter estimate: the slopes between successive dilated
    volumes (where the lattice rasterization bias cancels) are extrapolated
    linearly to zero width.
    """
    eps_list = [check_eps(e) for e in eps_list]
    if not eps_list:
        raise InvalidArgumentError("need at least one eps value")
    if any(e <= 2 * domain.spacing for e in eps_list):
        raise ResolutionError("every eps must exceed twice the grid spacing")
    if any(a <= b for a, b in zip(eps_list, eps_list[1:])):
        raise InvalidArgumentError("eps values must be sorted descending")
    base = volume(domain)
    vols = [volume(dilate(domain, e)) for e in eps_list]
    quots = [(e, (v - base) / e) for e, v in zip(eps_list, vols)]
    extrapolated = None
    if len(quots) >= 3:
        (e1, v1), (e2, v2), (e3, v3) = list(zip(eps_list, vols))[-3:]
        s1 = (v1 - v2) / (e1 - e2)
        s2 = (v2 - v3) / (e2 - e3)
        m1 = 0.5 * (e1 + e2)
        m2 = 0.5 * (e2 + e3)
        extrapolated = s2 - m2 * (s1 - s2) / (m1 - m2)
    return SteinerResult(quotients=quots, extrapolated=extrapolated)


# ---------------------------------------------------------------------------
# resampling


def restrict_to_domain(u: GridFunction, domain: GridDomain, cloud: BoundaryCloud | None = None) -> GridFunction:
    """Sample a (box) function onto a domain, tracing by linear interpolation."""
    h = domain.spacing
    if abs(u.domain.spacing - h) > 1e-12 * h:
        raise InvalidArgumentError("restriction requires matching spacings")
    if cloud is None:
        cloud = extract_boundary(domain)
    src = u.values

    from scipy import ndimage  # first use only: the one caller of scipy.ndimage

    def sample(points):
        coords = (points - u.domain.origin) / h - 0.5
        return ndimage.map_coordinates(src, coords.T, order=1, mode="constant", cval=0.0)

    values = np.zeros(domain.shape)
    values[domain.mask] = sample(domain.cell_centers())
    trace = sample(cloud.points)
    fn = GridFunction(domain, values, cloud, trace)
    fn.metadata.update(u.metadata)
    return fn


# ---------------------------------------------------------------------------
# serialization: GMT-FUNC v1 (text header + embedded grid + little-endian data)


def save_function(u: GridFunction, path) -> None:
    grid_text = serialize_domain(u.domain).encode("utf-8")
    cells = u.values[u.domain.mask]
    ntrace = 0 if u.trace is None else len(u.trace)
    header = f"GMT-FUNC v1 {cells.size} {ntrace}\n".encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(struct.pack("<I", len(grid_text)))
        fh.write(grid_text)
        fh.write(cells.astype("<f8").tobytes())
        if ntrace:
            fh.write(u.trace.astype("<f8").tobytes())


def load_function(path, cloud: BoundaryCloud | None = None) -> GridFunction:
    with open(path, "rb") as fh:
        header = fh.readline().decode("utf-8").split()
        if header[:2] != ["GMT-FUNC", "v1"]:
            raise SpecError("not a GMT-FUNC v1 file")
        ncells, ntrace = int(header[2]), int(header[3])
        (glen,) = struct.unpack("<I", fh.read(4))
        domain = parse_domain_text(fh.read(glen).decode("utf-8"))
        cells = np.frombuffer(fh.read(8 * ncells), dtype="<f8")
        trace = None
        if ntrace:
            trace = np.frombuffer(fh.read(8 * ntrace), dtype="<f8")
    values = np.zeros(domain.shape)
    values[domain.mask] = cells
    if trace is not None and cloud is None:
        cloud = extract_boundary(domain)
        if len(cloud) != ntrace:
            raise SpecError("trace length does not match the domain boundary")
    return GridFunction(domain, values, cloud if trace is not None else None, trace)
