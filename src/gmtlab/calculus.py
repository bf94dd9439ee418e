"""Discrete function calculus on grid domains.

Gradients use forward differences with the Euclidean magnitude; cells whose
forward neighbor is exterior difference toward the trace value at the
adjacent boundary face (half-spacing step), so affine functions have exact
gradients up to the boundary; the boundary faces are found through the
cloud's face table, built with the cloud by ``domains.extract_boundary``.
All reductions go through numpy's pairwise summation, which keeps results
bitwise reproducible for a fixed shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .domains import (
    BoundaryCloud,
    GridDomain,
    _centers_grid,
    _grid_shape,
    _lattice,
    check_eps,
    dilate,
    extract_boundary,
    volume,
    within_distance,
)
from .errors import InvalidArgumentError, ResolutionError
from .expressions import Expression
from .hausdorff import Partition, unit_ball_volume

__all__ = [
    "GridFunction",
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
    "shell_gradient_discrete",
    "truncate",
    "total_variation",
    "build_mollifier",
    "fft_convolve",
    "mollify",
    "minkowski_steiner",
    "SteinerResult",
    "interior_region",
    "restrict_to_domain",
]


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Cell values on a domain plus their boundary trace.

    ``values`` is a full-grid array that is zero outside the mask (the
    constructor keeps the given values on the mask only, so exterior ones,
    even non-finite ones, are ignored), and ``trace`` holds one value per
    point of the domain's boundary face cloud (:attr:`cloud`).
    ``lipschitz``, when given, declares a modulus of continuity
    omega(t) = lipschitz * t which is checked against the trace at
    construction and consumed by the proof tracer.  Functions are equal
    only to themselves.
    """

    domain: GridDomain
    values: np.ndarray
    trace: np.ndarray
    lipschitz: float | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.domain.shape:
            raise InvalidArgumentError("values must cover the full grid box")
        # exterior values are dropped first, so a non-finite one is never refused
        values = np.where(self.domain.mask, values, 0.0)
        if not np.isfinite(values).all():
            raise InvalidArgumentError("values must be finite on every interior cell")
        if self.lipschitz is not None and not self.lipschitz >= 0:
            raise InvalidArgumentError("lipschitz must be nonnegative")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        trace = np.asarray(self.trace, dtype=float).copy()
        if trace.shape != (len(self.cloud),):
            raise InvalidArgumentError("trace length must match the cloud")
        trace.setflags(write=False)
        object.__setattr__(self, "trace", trace)
        if self.lipschitz is not None:
            self._check_trace_consistency()

    @property
    def cloud(self) -> BoundaryCloud:
        """The domain's boundary face cloud (``extract_boundary``), where the trace lives."""
        return extract_boundary(self.domain)

    def _check_trace_consistency(self):
        bound = self.lipschitz * self.h * math.sqrt(self.domain.dim) + 1e-12
        values = self.values.reshape(-1)
        gap = np.max([np.max(np.abs(self.trace[rows] - values[cells]))
                      for rows, cells in self.cloud.faces.blocks.values()])
        if gap > bound:
            raise InvalidArgumentError(
                f"trace inconsistent with declared modulus: gap {gap:.3e} > {bound:.3e}"
            )

    @property
    def h(self) -> float:
        return self.domain.spacing


# ---------------------------------------------------------------------------
# constructors


def _domain_cloud(domain: GridDomain, cloud: BoundaryCloud | None) -> BoundaryCloud:
    """The domain's boundary cloud; a ``cloud`` passed in must be that very object."""
    own = extract_boundary(domain)
    if cloud is not None and cloud is not own:
        raise InvalidArgumentError("the cloud is not the boundary face cloud of this domain")
    return own


def from_expression(
    domain: GridDomain,
    expr: str | Expression,
    cloud: BoundaryCloud | None = None,
    lipschitz: float | None = None,
) -> GridFunction:
    """Evaluate an expression at the cell centres and at the boundary cloud points.

    The values are evaluated on the whole grid box, on its sparse centre
    lattice (the bits of ``cell_centers()``), and kept on the mask only, so
    a non-finite value off it is ignored.  Trace values come from the
    defining expression evaluated at the cloud points, never from interior
    extrapolation.
    """
    if isinstance(expr, str):
        expr = Expression(expr)
    cloud = _domain_cloud(domain, cloud)
    lattice = _centers_grid(domain.origin, domain.shape, domain.spacing)
    values = np.broadcast_to(expr(lattice), domain.shape)
    trace = np.broadcast_to(expr(cloud.coords), len(cloud))
    return GridFunction(domain, values, trace, lipschitz)


def constant_function(domain: GridDomain, value: float, cloud: BoundaryCloud | None = None) -> GridFunction:
    cloud = _domain_cloud(domain, cloud)
    values = np.broadcast_to(float(value), domain.shape)
    trace = np.full(len(cloud), float(value))
    return GridFunction(domain, values, trace, lipschitz=0.0)


def indicator_function(domain: GridDomain, cloud: BoundaryCloud | None = None) -> GridFunction:
    return constant_function(domain, 1.0, cloud)


# ---------------------------------------------------------------------------
# gradients and norms


def _grad_stencil(mask: np.ndarray, h: float, values: np.ndarray, trace: np.ndarray, faces: dict) -> np.ndarray:
    """Squared forward-difference gradient magnitude on the cells of ``mask``, in C order (uncached).

    Along each axis, cells whose forward neighbour is interior take the
    difference from a shifted slice; cells on a +face difference toward the
    trace there (half spacing) instead.  Cells on a -face add the one-sided
    difference toward that trace as an extra component, so jumps against the
    boundary are never invisible to the scheme.  Per axis the component is
    squared and added before the extra one.

    ``faces`` must hold every boundary face of ``mask`` (a function's
    cloud is its domain's): the differences are taken over the whole
    grid, zeroed on exterior cells, and a difference into an exterior cell
    is then overwritten by its +face.
    """
    mag2 = np.empty(mask.shape)
    flat_mag2 = mag2.reshape(-1)
    flat_vals = values.reshape(-1)
    comp = np.empty(mask.shape)
    flat_comp = comp.reshape(-1)
    exterior = ~mask
    for axis in range(mask.ndim):
        # the forward neighbour is one stride on in the flat grid; past an
        # axis's last slice the flat shift wraps, but that slice is exterior
        stride = int(np.prod(mask.shape[axis + 1:]))
        np.subtract(flat_vals[stride:], flat_vals[:-stride], out=flat_comp[:-stride])
        flat_comp[:-stride] /= h
        comp[exterior] = 0.0  # no difference into the exterior reaches a square
        rows, cells = faces[axis, 1]
        flat_comp[cells] = (trace[rows] - flat_vals[cells]) / (h / 2.0)
        if axis == 0:
            np.multiply(comp, comp, out=mag2)
        else:
            mag2 += np.multiply(comp, comp, out=comp)
        rows, cells = faces[axis, -1]
        extra = (flat_vals[cells] - trace[rows]) / (h / 2.0)
        flat_mag2[cells] += extra * extra
    del comp, flat_comp  # before the gather: the pass peaks at two float grids
    return mag2[mask]


def _gradient_mag_squared(u: GridFunction) -> np.ndarray:
    """Squared gradient magnitude on the domain's cells (see :func:`_grad_stencil`).

    Functions are immutable, so the result is computed once per function and
    cached on it, read-only, with one entry per cell of the domain.
    """
    cached = vars(u).get("_grad_mag2")
    if cached is not None:
        return cached
    mag2 = _grad_stencil(u.domain.mask, u.h, u.values, u.trace, u.cloud.faces.blocks)
    mag2.setflags(write=False)
    object.__setattr__(u, "_grad_mag2", mag2)
    return mag2


def grad_l1(u: GridFunction) -> float:
    """Integral of the Euclidean gradient magnitude over the domain (cached on u)."""
    cached = vars(u).get("_grad_l1")
    if cached is None:
        cached = float(np.sum(np.sqrt(_gradient_mag_squared(u)))) * u.h ** u.domain.dim
        object.__setattr__(u, "_grad_l1", cached)
    return cached


def grad_l2_squared(u: GridFunction) -> float:
    """Integral of |grad u|^2 over the domain."""
    return float(np.sum(_gradient_mag_squared(u))) * u.h ** u.domain.dim


def _lq(values: np.ndarray, mask: np.ndarray, q: float, cell: float) -> float:
    """(sum |values|^q cell)^(1/q) over the cells of ``mask``, each of measure ``cell``.
    The abs and the power (``**=``, the same power as ``**``) act in place on one gather."""
    vals = values[mask]
    np.abs(vals, out=vals)
    vals **= q
    return float(np.sum(vals) * cell) ** (1.0 / q)


def lq_norm(u: GridFunction, q: float) -> float:
    """(sum |u|^q h^n)^(1/q) over the interior cells, in C order (cached on u per q)."""
    if q < 1:
        raise InvalidArgumentError("q must be at least 1")
    norms = vars(u).setdefault("_lq_norms", {})
    if q not in norms:
        norms[q] = _lq(u.values, u.domain.mask, q, u.h ** u.domain.dim)
    return norms[q]


def boundary_integral(u: GridFunction, calibration: float | None = None) -> float:
    """Sum of |trace| against the cloud weights.

    ``calibration`` rescales the raw face weights so their total matches an
    externally estimated boundary measure; the caller records the factor.
    """
    factor = 1.0 if calibration is None else float(calibration)
    return float(np.sum(np.abs(u.trace) * u.cloud.weights)) * factor


# ---------------------------------------------------------------------------
# pointwise lattice operations


def pointwise_min(u: GridFunction, v: GridFunction) -> GridFunction:
    if u.domain is not v.domain:
        raise InvalidArgumentError("pointwise operations need identical domains")
    return GridFunction(u.domain, np.minimum(u.values, v.values), np.minimum(u.trace, v.trace))


def abs_value(u: GridFunction) -> GridFunction:
    """|u|; a function with no negative value or trace is returned as it is."""
    if not ((u.values < 0).any() or (u.trace < 0).any()):
        return u
    return GridFunction(u.domain, np.abs(u.values), np.abs(u.trace), u.lipschitz)


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


# most cells of one barrier window: the one block a consumer holds (distances, ramps,
# the TV's two arrays, one bool mask) takes about 33 bytes a cell, so 2 GiB here
_MAX_WINDOW_CELLS = 1 << 26


def _index_box(domain: GridDomain, center: np.ndarray, radius):
    """Cell index bounds [lo, hi) per axis covering B(center, radius), unclipped; broadcasts.

    A window above ``_MAX_WINDOW_CELLS`` (the widest box, unclipped) is an
    InvalidArgumentError, raised before any bound is cast to an integer.
    """
    h = domain.spacing
    lo = np.floor((center - radius - domain.origin) / h - 1)
    hi = np.ceil((center + radius - domain.origin) / h + 1)
    _grid_shape(np.max(np.reshape(hi - lo, (-1, domain.dim)), axis=0, initial=0), _MAX_WINDOW_CELLS)
    return lo.astype(int), hi.astype(int)


# lattice points per block of stacked windows: 2 MB per float array, in 3D too
_BLOCK_POINTS = 1 << 18


def _barrier_windows(domain: GridDomain, centers: np.ndarray, diams: np.ndarray, s: float, heights: np.ndarray):
    """Yield (slice of the barriers, lo, hi, dist, ramps) in blocks of bounded size.

    ``centers`` is (B, n), ``diams`` and ``heights`` are (B,).  A barrier's
    window is the unclipped index box [lo, hi) of its shell B(x_C, diam + s
    + 3h).  A block's ``dist`` (b, *width) holds each centre's distances to
    its window's cell centres, padded to the widest window with ``inf``
    (``domains._lattice``), and ``ramps`` their barrier ramps: 0 up to
    ``diam``, linear up to ``height`` at ``diam + s``, the cap on the padding.
    """
    lo, hi = _index_box(domain, centers, (diams + s + 3 * domain.spacing).reshape(-1, 1))
    block = max(1, _BLOCK_POINTS // max(1, int(np.prod(np.max(hi - lo, axis=0, initial=0)))))
    per_centre = (-1,) + (1,) * domain.dim
    for start in range(0, len(centers), block):
        b = slice(start, start + block)
        dist = 0
        for a, x in enumerate(_lattice(domain.origin, domain.spacing, lo[b], hi[b])):
            dist = dist + (x - centers[b, a].reshape(per_centre)) ** 2
        np.sqrt(dist, out=dist)
        ramps = heights[b].reshape(per_centre) * np.clip((dist - diams[b].reshape(per_centre)) / s, 0.0, 1.0)
        yield b, lo[b], hi[b], dist, ramps


def shell_gradient_discrete(x_c, diam, s: float, height, domain: GridDomain):
    """Discrete gradient mass of the capped barrier over its full shell.

    Computed on an unclipped virtual lattice aligned with the domain grid
    (the shell may extend beyond both the domain and its grid box),
    matching the analytic ``shell_mass`` of the same parameters.  Given a
    stack of B centres (B, n) with B diameters and heights, it takes the TV
    of each block of :func:`_barrier_windows`, one block at a time, and
    returns the B masses, each the same as for that shell alone.
    """
    x_c = np.asarray(x_c, dtype=float)
    centers = x_c.reshape(-1, domain.dim)
    diams, heights = (np.broadcast_to(np.asarray(v, dtype=float), len(centers)) for v in (diam, height))
    masses = []
    for _, lo, hi, dist, ramps in _barrier_windows(domain, centers, diams, s, heights):
        masses.append(_forward_tv(ramps, domain.spacing, hi - lo))
        del dist, ramps  # before the next block is built
    return np.concatenate(masses) if x_c.ndim == 2 else float(masses[0][0])


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

    One pass over :func:`_barrier_windows`: each block's shell masses (the
    bits of :func:`shell_gradient_discrete`) are taken first and kept,
    read-only, in ``metadata["shell_masses"]``.  Then each window, ``inf``
    off the closed ball B(x_C, diam + s), is folded into its part of the
    grid box (never empty: it holds x_C, a cloud point) with a minimum on a
    slice, which is exact in any order.  One block is held at a time.

    The result's trace is zero.  Each trace point lies in its own cell C,
    within 2 * rd(C) of x_C (a :class:`Partition` invariant), where C's
    barrier ramp is 0; so min(trace, barriers) vanishes on the whole cloud.
    The partition must be of ``u.cloud`` itself.
    """
    if part.cloud is not u.cloud:
        raise InvalidArgumentError("the partition is not of the function's boundary cloud")
    dom = u.domain
    if (u.values < 0).any() or (u.trace < 0).any():
        raise InvalidArgumentError("truncate expects a nonnegative function")
    if not 0 < s < part.delta / 2:
        raise InvalidArgumentError("need 0 < s < delta/2 for the partition's delta")
    centers, diams, heights = _barriers(u, part, eps)

    out = u.values.copy()
    masses = []
    for b, lo, hi, dist, ramps in _barrier_windows(dom, centers, diams, s, heights):
        masses.append(_forward_tv(ramps, dom.spacing, hi - lo))
        ramps[dist > (diams[b] + s).reshape((-1,) + (1,) * dom.dim)] = np.inf
        for ramp, start, stop, first in zip(ramps, np.maximum(lo, 0), np.minimum(hi, dom.shape), lo):
            view = out[tuple(map(slice, start, stop))]
            np.minimum(view, ramp[tuple(map(slice, start - first, stop - first))], out=view)
        del dist, ramps, ramp  # before the next block is built
    # discrete vanishing trace: zero out the collar next to the boundary (the
    # cells within 1.5h of an exterior cell) and the exterior with it
    out[within_distance(~dom.mask, 1.5 * dom.spacing, dom.spacing)] = 0.0
    masses = np.concatenate(masses)
    masses.setflags(write=False)
    return GridFunction(dom, out, np.zeros(len(u.cloud)), metadata={"shell_masses": masses})


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
    flat_v = v.reshape(-1)
    total = np.zeros(v.shape)
    d = np.empty(v.shape)
    for a in range(1, n + 1):
        # the forward neighbour is one stride on in the flat stack, which wraps
        # past the axis's last slice; that slice's difference is set to zero
        stride = int(np.prod(v.shape[a + 1:]))
        np.subtract(flat_v[stride:], flat_v[:-stride], out=d.reshape(-1)[:-stride])
        d[(slice(None),) * a + (-1,)] = 0.0
        total += np.multiply(d, d, out=d)
    roots = np.sqrt(total, out=total)
    sums = [np.sum(np.ascontiguousarray(r[tuple(slice(0, k) for k in w)])) for r, w in zip(roots, widths)]
    # raw differences carry one factor of h less than the gradient
    return np.array(sums) * h ** (n - 1)


def _kernel_cells(k: int, spacing: float) -> int:
    """Half width m, in cells, of the index-k kernel: its grid is (2m+1)^n."""
    if k < 1:
        raise InvalidArgumentError("mollifier index must be a positive integer")
    radius = 1.0 / k
    if radius < 2 * spacing:
        raise ResolutionError("kernel support 1/k must be at least two cells wide")
    return int(math.floor(radius / spacing))


def build_mollifier(k: int, spacing: float, dim: int) -> np.ndarray:
    """Radial tent kernel of support radius 1/k, renormalized to unit mass.

    A kernel grid above the domain grid limit is an InvalidArgumentError,
    raised before anything is allocated.
    """
    m = _kernel_cells(k, spacing)
    _grid_shape([2 * m + 1] * dim)
    axes = [np.arange(-m, m + 1) * spacing for _ in range(dim)]
    grids = np.meshgrid(*axes, indexing="ij")
    dist = np.sqrt(sum(g * g for g in grids))
    kernel = np.clip(1.0 - k * dist, 0.0, None)
    kernel /= np.sum(kernel) * spacing ** dim
    return kernel


def _fast_len(n: int) -> int:
    """Smallest 5-smooth integer (of the form 2^a 3^b 5^c) at least n.

    Real FFTs of such lengths factor into radix-2, -3 and -5 passes only
    (Frigo and Johnson, Proc. IEEE 93 (2005)); gaps between them stay small
    next to n, so the search by trial division is short.
    """
    while True:
        r = n
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return n
        n += 1


def fft_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of two real arrays with the same number of axes.

    The output has shape ``a.shape + b.shape - 1`` (the "full" mode of
    ``scipy.signal.fftconvolve``).  Both arrays are zero-padded on every axis
    to the 5-smooth length (:func:`_fast_len`) of at least that size, so the
    product of their real FFTs (``numpy.fft``) is the linear convolution, not
    a circular one.
    """
    full = [n + m - 1 for n, m in zip(a.shape, b.shape)]
    fshape = [_fast_len(n) for n in full]
    axes = tuple(range(a.ndim))
    spectrum = np.fft.rfftn(a, fshape, axes=axes) * np.fft.rfftn(b, fshape, axes=axes)
    return np.fft.irfftn(spectrum, fshape, axes=axes)[tuple(slice(0, n) for n in full)]


def _convolved(u: GridFunction, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The index-k mollification's values on the box of its support, and its mask.

    The convolution is the full one of u's values with the (2m+1)^n kernel
    weights: its n + 2m cells per axis hold the whole support.  It is one
    real FFT product, whose rounding leaves noise of order 1e-16 of the peak
    on cells the kernel never reaches; values below 1e-13 of the peak are
    scrubbed to zero so the support stays sharp.  The mask is that support
    plus u's mask, so every cell outside it holds an exact zero.  A grid
    two cells wider on every side (:func:`mollify`'s) above the domain grid
    limit is an InvalidArgumentError, raised before anything is allocated.
    """
    h, n = u.domain.spacing, u.domain.dim
    m = _kernel_cells(k, h)
    _grid_shape([s + 2 * (m + 2) for s in u.domain.shape])
    weights = build_mollifier(k, h, n) * h ** n  # discrete weights sum to 1
    conv = fft_convolve(u.values, weights)
    tiny = 1e-13 * float(np.max(np.abs(conv), initial=0.0))
    conv[np.abs(conv) < tiny] = 0.0
    return conv, (conv != 0.0) | np.pad(u.domain.mask, m)


def mollify(u: GridFunction, k: int) -> GridFunction:
    """Convolution with the index-k mollifier on an enlarged grid box.

    Mass is preserved exactly up to rounding, and the discrete total
    variation never increases (the kernel has unit mass and the grid box is
    padded so the convolution is never clipped).  The values and the mask
    of the enlarged domain are those of :func:`_convolved` with two zero
    cells more on every side, so the grid box is m + 2 cells wider than the
    domain's and the result's trace is zero.  ``check_extended_sobolev``
    reads its norms off :func:`_convolved` and builds no such function.
    """
    conv, mask = _convolved(u, k)
    pad = _kernel_cells(k, u.domain.spacing) + 2
    new_dom = GridDomain(u.domain.spacing, u.domain.origin - pad * u.domain.spacing, np.pad(mask, 2))
    return GridFunction(new_dom, np.pad(conv, 2), np.zeros(len(extract_boundary(new_dom))))


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
    cloud = _domain_cloud(domain, cloud)
    src = u.values

    from scipy import ndimage  # first use only: the one caller of scipy.ndimage

    def sample(cols):
        # per-axis rows of points, as grid coordinates of the source's cell centres
        coords = (cols - u.domain.origin[:, None]) / h - 0.5
        return ndimage.map_coordinates(src, coords, order=1, mode="constant", cval=0.0)

    values = np.zeros(domain.shape)
    values[domain.mask] = sample(domain.cell_centers().T)
    trace = sample(cloud.coords)
    return GridFunction(domain, values, trace)
