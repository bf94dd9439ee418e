"""Inequality verdicts, proof tracing, and extremal-quotient search.

Every check evaluates both sides of one inequality on concrete grid data
and returns a :class:`Report` whose holds-flag allows the frozen
discretization tolerance.  Boundary integrals inside checks use calibrated
weights: the raw face weights are rescaled so that their total matches the
covering estimate of the boundary measure (the factor is recorded in the
report metadata).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import calculus as calc
from .constants import TRACE_STEP_TOLERANCES, holds_tolerance
from .domains import BoundaryCloud, GridDomain, extract_boundary, volume
from .errors import (
    DegenerateStartError,
    GmtLabError,
    InvalidArgumentError,
    NoModulusError,
    NumericalError,
    ResolutionError,
)
from .hausdorff import build_partition, estimate_hm_detail, partition_defect, unit_ball_volume

__all__ = [
    "Report",
    "TraceStep",
    "TraceReport",
    "iso_constant",
    "paper_boundary_factor",
    "check_isoperimetric",
    "check_sobolev",
    "check_mazya",
    "check_mazya_l2",
    "check_bv_bound",
    "check_brunn_minkowski",
    "check_extended_sobolev",
    "check_perimeter_iso",
    "proof_trace",
    "quotient_search",
]

MAZYA_MODES = ("optimal", "paper_factor")  # check_mazya's boundary factors: 1, or the paper's
MOLLIFIER_INDICES = (4, 8, 16)  # check_extended_sobolev's chain when no k_list is given


def _check_sides(name: str, lhs: float, rhs: float) -> None:
    """A NumericalError naming ``name`` and the side when a side is not a finite number."""
    for side, value in (("lhs", lhs), ("rhs", rhs)):
        if not math.isfinite(value):
            raise NumericalError(f"{name}: the {side} is {value!r}, not a finite number")


@dataclass
class Report:
    """Two sides of one inequality with a tolerance-aware verdict.

    A side that is not a finite number (an overflowed sum, say) gives no
    verdict: it is a NumericalError naming the check and the side.
    """

    inequality_id: str
    lhs: float
    rhs: float
    constant_mode: str
    constant_value: float
    tol: float
    holds: bool = field(init=False)
    ratio: float = field(init=False)
    metadata: dict = field(default_factory=dict)
    flipped: bool = False  # true when the verdict checks rhs >= lhs * (1 - tol)

    def __post_init__(self):
        _check_sides(self.inequality_id, self.lhs, self.rhs)
        if self.flipped:
            self.holds = self.rhs >= self.lhs * (1.0 - self.tol)
        else:
            self.holds = self.lhs <= self.rhs * (1.0 + self.tol)
        if self.rhs > 0:
            self.ratio = self.lhs / self.rhs
        else:
            self.ratio = 0.0 if self.lhs == 0 else math.inf

    def to_dict(self) -> dict:
        return {
            "inequality_id": self.inequality_id,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "constant_mode": self.constant_mode,
            "constant_value": self.constant_value,
            "ratio": self.ratio,
            "holds": bool(self.holds),
            "tol": self.tol,
            "metadata": self.metadata,
        }


@dataclass
class TraceStep:
    """One labeled step of the proof replay; like a :class:`Report`, it
    refuses a side that is not a finite number with a NumericalError."""

    label: str
    lhs: float
    rhs: float
    holds: bool

    def __post_init__(self):
        _check_sides(self.label, self.lhs, self.rhs)


_TRACE_ORDER = tuple(TRACE_STEP_TOLERANCES)


@dataclass
class TraceReport:
    steps: list
    parameters: dict

    def __post_init__(self):
        labels = [s.label for s in self.steps]
        if labels != list(_TRACE_ORDER):
            raise InvalidArgumentError(f"trace steps must be {_TRACE_ORDER}, got {labels}")

    @property
    def all_hold(self) -> bool:
        return all(s.holds for s in self.steps)

    def step(self, label: str) -> TraceStep:
        return next(s for s in self.steps if s.label == label)

    def to_dict(self) -> dict:
        return {
            "parameters": self.parameters,
            "steps": [
                {"label": s.label, "lhs": s.lhs, "rhs": s.rhs, "holds": bool(s.holds)}
                for s in self.steps
            ],
            "all_hold": self.all_hold,
        }


# ---------------------------------------------------------------------------
# constants


def iso_constant(n: int) -> float:
    """Sharp constant 1 / (n * omega_n^(1/n)) of the volume-boundary inequalities.

    Both closed forms are evaluated and must agree to 1e-12 relative.
    """
    if n < 1:
        raise InvalidArgumentError("dimension must be at least 1")
    omega = unit_ball_volume(n)
    value = 1.0 / (n * omega ** (1.0 / n))
    alt = math.gamma(n / 2.0 + 1.0) ** (1.0 / n) / (n * math.sqrt(math.pi))
    if not math.isclose(value, alt, rel_tol=1e-12):
        raise NumericalError("closed forms of the sharp constant disagree")
    return value


def paper_boundary_factor(n: int) -> float:
    """Boundary-term factor 2^(n-1) * n * omega_n / omega_(n-1)."""
    if n < 2:
        raise InvalidArgumentError("the boundary factor needs dimension >= 2")
    return 2.0 ** (n - 1) * n * unit_ball_volume(n) / unit_ball_volume(n - 1)


# ---------------------------------------------------------------------------
# calibration helpers

# below this sample count the covering estimator cannot resolve a closed
# boundary at scale 8h; fall back to the exact face-count measure
_MIN_RESOLVED_POINTS_FACTOR = 4


def _boundary_measure(cloud: BoundaryCloud) -> tuple[float, dict]:
    """Covering estimate of a boundary cloud's measure at scale 8h (h its resolution), with its provenance.

    The estimate is a pure function of the immutable cloud, so it is computed
    once and memoised on the cloud; every caller gets its own copy of the
    metadata.
    """
    cached = vars(cloud).get("_boundary_measure")
    if cached is None:
        n, delta = cloud.dim, 8.0 * cloud.resolution
        meta = {"delta_auto": delta}
        if len(cloud) <= _MIN_RESOLVED_POINTS_FACTOR * n * 2:
            meta["method"] = "face-count fallback (cloud too small to cover)"
            meta["upper_bound"] = False
            measure = cloud.total_weight
        else:
            est = estimate_hm_detail(cloud, n - 1, delta)
            meta.update({"method": est.method, "upper_bound": True, "n_cells": est.n_cells})
            measure = est.value
        cached = (measure, meta)
        object.__setattr__(cloud, "_boundary_measure", cached)
    measure, meta = cached
    return measure, dict(meta)


def _calibration(cloud: BoundaryCloud) -> tuple[float, dict]:
    measure, meta = _boundary_measure(cloud)
    raw = cloud.total_weight
    factor = measure / raw if raw > 0 else 1.0
    meta.update({"boundary_measure": measure, "raw_weight": raw, "calibration_factor": factor})
    return factor, meta


# ---------------------------------------------------------------------------
# checks


def check_isoperimetric(domain: GridDomain) -> Report:
    """vol^{(n-1)/n} against c(n) times the boundary measure."""
    n = domain.dim
    vol = volume(domain)
    if vol == 0:
        raise InvalidArgumentError("isoperimetric check needs a nonempty domain")
    measure, meta = _boundary_measure(extract_boundary(domain))
    c = iso_constant(n)
    lhs = vol ** ((n - 1) / n)
    rhs = c * measure
    meta["h"] = domain.spacing
    return Report("isoperimetric", lhs, rhs, "optimal", c,
                  holds_tolerance("isoperimetric", domain.spacing), metadata=meta)


def check_sobolev(u: calc.GridFunction) -> Report:
    """L_q norm against c(n) times the gradient mass of the zero extension (u is 0 off its mask)."""
    n = u.domain.dim
    q = n / (n - 1)
    c = iso_constant(n)
    lhs = calc.lq_norm(u, q)
    rhs = c * calc.total_variation(u)
    meta = {"h": u.domain.spacing, "q": q}
    return Report("sobolev", lhs, rhs, "optimal", c,
                  holds_tolerance("sobolev", u.domain.spacing), metadata=meta)


def check_mazya(u: calc.GridFunction, mode: str = "paper_factor") -> Report:
    """L_q norm against gradient mass plus (factored) boundary-trace mass on u's domain."""
    if mode not in MAZYA_MODES:
        raise InvalidArgumentError(f"unknown constant mode {mode!r}")
    domain = u.domain
    n = domain.dim
    q = n / (n - 1)
    c = iso_constant(n)
    factor = 1.0 if mode == "optimal" else paper_boundary_factor(n)
    cal, meta = _calibration(u.cloud)
    lhs = calc.lq_norm(u, q)
    rhs = c * (calc.grad_l1(u) + factor * calc.boundary_integral(u, calibration=cal))
    meta.update({"h": domain.spacing, "q": q, "boundary_factor": factor})
    return Report("mazya", lhs, rhs, mode, c, holds_tolerance("mazya", domain.spacing), metadata=meta)


_AUTO_C1_EXPRS = ("1", "x", "y", "x*y", "x*x+y*y")


def _auto_c1(domain: GridDomain) -> float:
    """Calibrate the L1 bound constant on a fixed small function family.

    The result depends only on the domain's immutable cloud, so it is
    computed once and memoised on the cloud, as the boundary measure is.
    """
    cloud = extract_boundary(domain)
    cached = vars(cloud).get("_auto_c1")
    if cached is None:
        cal, _ = _calibration(cloud)
        worst = 0.0
        for expr in _AUTO_C1_EXPRS:
            try:
                f = calc.from_expression(domain, expr)
            except GmtLabError:
                continue
            lhs = calc.lq_norm(f, 1.0)
            rhs = calc.grad_l1(f) + calc.boundary_integral(f, calibration=cal)
            if rhs > 0:
                worst = max(worst, lhs / rhs)
        cached = max(worst, 1e-6)
        object.__setattr__(cloud, "_auto_c1", cached)
    return cached


def check_mazya_l2(u: calc.GridFunction, c1) -> Report:
    """Squared L2 norm against 2 c1 (2 c1 |grad u|_2^2 + squared trace mass) on u's domain."""
    domain = u.domain
    auto = isinstance(c1, str)
    if auto and c1 != "auto":
        raise InvalidArgumentError("c1 must be a positive number or 'auto'")
    if not auto and float(c1) <= 0:
        raise InvalidArgumentError("c1 must be positive")
    cal, meta = _calibration(u.cloud)
    c1_val = _auto_c1(domain) if auto else float(c1)
    lhs = calc.lq_norm(u, 2.0) ** 2
    grad_sq = calc.grad_l2_squared(u)
    trace_sq = float(np.sum(u.trace ** 2 * u.cloud.weights)) * cal
    rhs = 2.0 * c1_val * (2.0 * c1_val * grad_sq + trace_sq)
    # intermediate bound: int |u| |grad u| <= ||u||_2 * (int |grad u|^2)^(1/2)
    absu = calc.abs_value(u)
    mixed = calc._gradient_mag_squared(absu)
    cauchy_lhs = float(
        np.sum(np.abs(u.values[domain.mask]) * np.sqrt(mixed))
    ) * domain.spacing ** domain.dim
    cauchy_rhs = calc.lq_norm(u, 2.0) * math.sqrt(grad_sq)
    meta.update(
        {
            "h": domain.spacing,
            "c1": c1_val,
            "c1_auto": auto,
            "cauchy_lhs": cauchy_lhs,
            "cauchy_rhs": cauchy_rhs,
        }
    )
    return Report("mazya_l2", lhs, rhs, "supplied", c1_val,
                  holds_tolerance("mazya_l2", domain.spacing), metadata=meta)


def check_bv_bound(u: calc.GridFunction) -> Report:
    """Total variation of the zero extension against interior plus boundary mass on u's domain."""
    domain = u.domain
    n = domain.dim
    factor = paper_boundary_factor(n)
    cal, meta = _calibration(u.cloud)
    lhs = calc.total_variation(u)
    rhs = calc.grad_l1(u) + factor * calc.boundary_integral(u, calibration=cal)
    meta.update({"h": domain.spacing, "boundary_factor": factor})
    return Report("bv_bound", lhs, rhs, "paper_factor", factor,
                  holds_tolerance("bv_bound", domain.spacing), metadata=meta)


def _minkowski_sum(a: GridDomain, b: GridDomain) -> GridDomain:
    h = a.spacing
    conv = calc.fft_convolve(a.mask.astype(float), b.mask.astype(float))
    mask = conv > 0.5  # counts are integers >= 1 on the support
    mask = np.pad(mask, 1)
    origin = a.origin + b.origin + 0.5 * h - h
    return GridDomain(h, origin, mask)


def check_brunn_minkowski(a: GridDomain, b: GridDomain) -> Report:
    """Volume-root superadditivity under Minkowski sums (flipped verdict)."""
    if a.dim != b.dim:
        raise InvalidArgumentError("domains must share a dimension")
    if abs(a.spacing - b.spacing) > 1e-12 * a.spacing:
        raise InvalidArgumentError("domains must share the grid spacing")
    n = a.dim
    lhs = volume(a) ** (1.0 / n) + volume(b) ** (1.0 / n)
    vol_sum = volume(_minkowski_sum(a, b))
    rhs = vol_sum ** (1.0 / n)
    meta = {"h": a.spacing, "sum_volume": vol_sum}
    return Report("brunn_minkowski", lhs, rhs, "optimal", 1.0,
                  holds_tolerance("brunn_minkowski", a.spacing), metadata=meta, flipped=True)


def check_extended_sobolev(u: calc.GridFunction, k_list=MOLLIFIER_INDICES) -> Report:
    """L_q norm against c(n) times total variation, with a mollified chain.

    For each mollifier index k the report records that the smoothed function
    still satisfies the same bound with the unsmoothed right side, realizing
    the smoothing-limit argument numerically.  Each chain norm is read off
    the scrubbed convolution and its mask, as ``lq_norm(mollify(u, k), q)``
    would read it.
    """
    n = u.domain.dim
    q = n / (n - 1)
    c = iso_constant(n)
    tv = calc.total_variation(u)
    lhs = calc.lq_norm(u, q)
    rhs = c * tv
    tol_val = holds_tolerance("sobolev_extended", u.domain.spacing)
    chain = []
    for k in k_list:
        try:
            conv, mask = calc._convolved(u, k)
        except GmtLabError as exc:  # e.g. a kernel narrower than two cells
            chain.append({"k": int(k), "error": str(exc)})
            continue
        lq_k = calc._lq(conv, mask, q, u.h ** n)
        chain.append(
            {
                "k": int(k),
                "lq": lq_k,
                "tv_bound": c * tv,
                "holds": bool(lq_k <= c * tv * (1.0 + tol_val)),
            }
        )
    meta = {"h": u.domain.spacing, "tv": tv, "mollified_chain": chain,
            "tv_scheme": "forward-difference l2 magnitude"}
    return Report("sobolev_extended", lhs, rhs, "optimal", c, tol_val, metadata=meta)


def check_perimeter_iso(domain: GridDomain, eps_list=None) -> Report:
    """vol^{(n-1)/n} against c(n) times the volume-growth perimeter."""
    n = domain.dim
    h = domain.spacing
    if eps_list is None:
        eps_list = [32 * h, 16 * h, 8 * h]
    steiner = calc.minkowski_steiner(domain, eps_list)
    c = iso_constant(n)
    lhs = volume(domain) ** ((n - 1) / n)
    rhs = c * steiner.perimeter_estimate
    meta = {
        "h": h,
        "quotients": [[e, qv] for e, qv in steiner.quotients],
        "perimeter": steiner.perimeter_estimate,
    }
    return Report("perimeter_iso", lhs, rhs, "optimal", c,
                  holds_tolerance("perimeter_iso", h), metadata=meta)


# ---------------------------------------------------------------------------
# proof trace

# kappa_n: the forward-difference stencil puts the discrete mass of a barrier
# shell of width s (shell_gradient_discrete) above its closed form
# (shell_mass) by about kappa_n * h / s.  The excess sits at the ramp's two
# kinks, not in its curvature: planar ramps averaged over all orientations
# show the same kappa_n (none when axis-aligned, most where the normal's
# components differ in sign).  Measured on 40 random centres with diameters
# of 4 to 32 cells and s/h from 1 to 8, as the relative excess of the summed
# masses times s/h: at most 0.0726 in 2D and 0.1131 in 3D, flat in s/h.  The
# lattice is scale invariant, so one h serves.  Rounded up:
_SHELL_BIAS = {2: 0.073, 3: 0.114}


def proof_trace(u: calc.GridFunction, eps: float) -> TraceReport:
    """Numerically walk the truncation proof of the trace inequality.

    Builds the boundary partition at scale derived from the declared
    modulus of continuity, forms the barrier truncation with shells of
    width delta/4 (step ``main5`` reads the truncation's own shell masses),
    and records both sides of each labeled step.  The final step reuses the
    exact code path of :func:`check_mazya` in paper-factor mode.

    Each full grid lives only until its last read, so the replay holds
    about three float grids beyond ``u`` at its peak in 2D, and about 4.5
    in 3D: the truncation and its cached stencil are dropped once its TV,
    q-norm, gradient mass and shell masses are read, and the interior mask
    and the restricted u^q once the preliminary estimate is summed; only
    then is u's own stencil formed (and cached on u).  A side that is not a
    finite number is a NumericalError.
    """
    if not calc._nonnegative(u):
        raise InvalidArgumentError("proof trace expects a nonnegative function")
    if u.lipschitz is None:
        raise NoModulusError("proof trace needs a declared modulus of continuity")
    domain = u.domain
    h = domain.spacing
    if not 0 < eps < math.inf:
        raise InvalidArgumentError(f"eps must be positive and finite, got {eps!r}")
    if eps < 16 * h:
        raise InvalidArgumentError("eps must be at least 16 grid spacings")
    n = domain.dim
    q = n / (n - 1)
    lips = u.lipschitz
    # scale on which u oscillates less than eps, shrunk so that barrier
    # supports (radius <= 1.5 delta plus sampling slack) stay inside the
    # eps-neighborhood of the boundary
    delta = 0.6 * min(eps, eps / lips if lips > 0 else eps)
    if delta < 6 * h:
        raise ResolutionError(
            "the continuity scale derived from eps and the declared modulus "
            "is below six grid spacings; barrier shells would be unresolvable"
        )
    s = delta / 4.0
    # in 3D this floor (delta >= 9.12 h) lies above the six spacings; in 2D (5.84 h) below
    if _SHELL_BIAS[n] * h / s > TRACE_STEP_TOLERANCES["main5"]:
        raise ResolutionError(
            f"the shell width delta/4 is {s / h:.3g} grid spacings; the stencil's shell-mass "
            f"bias of about {_SHELL_BIAS[n]} h/s would exceed the main5 tolerance"
        )
    part = build_partition(u.cloud, n - 1, delta)

    # everything read from the truncation, before it and its cached stencil are dropped
    u_t = calc.truncate(u, part, eps, s)
    main6_rhs = iso_constant(n) * calc.total_variation(u_t)
    main6_lhs = calc.lq_norm(u_t, q)
    main4_lhs = calc.grad_l1(u_t)
    main5_lhs = float(np.sum(u_t.metadata["shell_masses"]))
    del u_t

    # u^q on the cells whose eps-ball fits inside the domain (u >= 0, and 0 off the mask)
    restricted = np.where(calc.interior_region(domain, eps), u.values, 0.0)
    restricted **= q
    prelim_lhs = float(np.sum(restricted) * h ** n) ** (1.0 / q)
    del restricted

    _, diams, heights = calc._barriers(u, part, eps)

    # shell masses: discrete on the grid (the truncation's own) versus the closed formula
    main5_rhs = float(np.sum(calc.shell_mass(diams, s, heights, n)))

    grad_u = calc.grad_l1(u)
    main4_rhs = grad_u + main5_rhs

    # zero-width limit of the shells
    limit_sum = float(np.sum(calc.shell_mass_limit(diams, heights, n)))
    prelim_rhs = iso_constant(n) * (grad_u + limit_sum)

    # partition certificate bounding the shell sum by boundary mass
    omega = unit_ball_volume(n - 1)
    hs_lhs = float(np.sum(heights * omega * part.rd ** (n - 1)))
    defect = partition_defect(part, n - 1)
    sup_u = float(np.max(u.trace, initial=0.0))
    hs_rhs = (sup_u + eps) * defect + float(
        np.sum((np.abs(u.trace) + 2.0 * eps) * u.cloud.weights)
    )

    mazya = check_mazya(u, mode="paper_factor")

    def step(label, lhs, rhs, two_sided=False):
        t = TRACE_STEP_TOLERANCES[label]
        if two_sided:
            ok = abs(lhs - rhs) <= t * max(abs(rhs), 1e-300)
        else:
            ok = lhs <= rhs * (1.0 + t)
        return TraceStep(label, lhs, rhs, bool(ok))

    steps = [
        step("main4", main4_lhs, main4_rhs),
        step("main5", main5_lhs, main5_rhs, two_sided=True),
        step("main6", main6_lhs, main6_rhs),
        step("prelim_est", prelim_lhs, prelim_rhs),
        step("hm_sum_estimate", hs_lhs, hs_rhs),
        step("main3", mazya.lhs, mazya.rhs),
    ]
    params = {
        "eps": eps,
        "delta": delta,
        "s": s,
        "partition_cells": len(part),
        "partition_rd_max": part.rd_max,
        "partition_defect": defect,
        "mazya_report": mazya.to_dict(),
    }
    return TraceReport(steps=steps, parameters=params)


# ---------------------------------------------------------------------------
# extremal-quotient search


def quotient_search(u0: calc.GridFunction, iters: int, step: float, seed: int = 0):
    """Coordinate ascent on the trace-inequality quotient on u0's domain.

    Maximizes Q(u) = |u|_q / (grad mass + factor * boundary mass) by
    perturbing one cell or trace value at a time, keeping improvements, and
    renormalizing after every sweep, in an order drawn from ``seed``.
    Returns (best function, best Q) with the per-sweep history in the
    function metadata.  The quotient may never
    exceed the sharp constant by more than five percent.
    """
    if iters < 1 or step < 0:
        raise InvalidArgumentError("need iters >= 1 and step >= 0")
    domain = u0.domain
    mask = domain.mask
    if not calc._nonnegative(u0):
        raise InvalidArgumentError("quotient search expects a nonnegative start")
    if not (u0.values.any() or u0.trace.any()):
        raise DegenerateStartError("all-zero start function")
    rng = np.random.default_rng(seed)
    n = domain.dim
    h = domain.spacing
    q = n / (n - 1)
    factor = paper_boundary_factor(n)
    cloud = u0.cloud
    cal, _ = _calibration(cloud)
    c_bound = iso_constant(n) * 1.05

    n_cells = int(np.count_nonzero(mask))
    hn = h ** n
    w_cal = (cloud.weights * cal).tolist()
    # a sweep tries values up to (1 + step) times its largest one, whose q-th
    # powers summed over the cells must stay below the float range
    cap = (sys.float_info.max / (hn * n_cells)) ** (1.0 / q)

    # the search coordinates x are the cell values followed by the trace values
    terms, affected = calc._grad_stencil_lists(domain)
    x = u0.values[mask].tolist() + u0.trace.tolist()

    def grad_at(i) -> float:
        v = x[i]
        acc = 0.0
        for k, w in terms[i]:
            d = (x[k] - v) / w
            acc += d * d
        return math.sqrt(acc)

    def as_function(**metadata):
        values = np.zeros(domain.shape)
        values[mask] = x[:n_cells]
        return calc.GridFunction(domain, values, x[n_cells:], metadata=metadata)

    def full_grad():
        # every cell's gradient magnitude at once: the stencil sums grad_at's terms in its order
        return np.sqrt(calc._grad_stencil(as_function())).tolist()

    def full_sums():
        arr = np.array(x)
        g = float(np.sum(grad_mag)) * hn
        b = float(np.sum(np.abs(arr[n_cells:]) * w_cal))
        num = float(np.sum(np.abs(arr[:n_cells]) ** q)) * hn
        return g, b, num

    def q_of(g, b, num) -> float:
        den = g + factor * b
        if den <= 0:
            return math.inf if num > 0 else 0.0
        return num ** (1.0 / q) / den

    def sweep_scale() -> float:
        scale = max(max(x), 1e-12)
        if not (1.0 + step) * scale < cap:
            raise InvalidArgumentError(f"values up to {scale!r} moved by step {step!r} overflow the quotient")
        return scale

    sweep_scale()  # a start that would overflow is refused before its sums
    # cap bounds the q-th powers only; the stencil's squared differences may still overflow
    with np.errstate(over="ignore", invalid="ignore"):
        grad_mag = full_grad()
        g_sum, b_sum, num_sum = full_sums()
    if not math.isfinite(g_sum):
        raise InvalidArgumentError(f"the start's gradient mass is {g_sum!r}, which overflows the quotient")
    q_cur = q_of(g_sum, b_sum, num_sum)
    history = [q_cur]

    for sweep in range(iters):
        scale = sweep_scale()
        for coord in rng.permutation(len(x)).tolist():
            old_val = x[coord]
            touched = affected[coord]
            for sgn in (1.0, -1.0):
                cand = max(0.0, old_val + sgn * step * scale)
                if cand == old_val:
                    continue
                x[coord] = cand
                new_num, new_b = num_sum, b_sum
                if coord < n_cells:
                    new_num = num_sum + (abs(cand) ** q - abs(old_val) ** q) * hn
                else:
                    new_b = b_sum + (abs(cand) - abs(old_val)) * w_cal[coord - n_cells]
                new_g = g_sum
                new_mags = [grad_at(j) for j in touched]
                for j, mg in zip(touched, new_mags):
                    new_g += (mg - grad_mag[j]) * hn
                if q_of(new_g, new_b, new_num) > q_cur:
                    num_sum, b_sum, g_sum = new_num, new_b, new_g
                    for j, mg in zip(touched, new_mags):
                        grad_mag[j] = mg
                    q_cur = q_of(g_sum, b_sum, num_sum)
                    break
                x[coord] = old_val
        # renormalize the q-norm to one (the quotient is scale invariant)
        norm = num_sum ** (1.0 / q)
        if norm > 0:
            x = (np.array(x) / norm).tolist()
        grad_mag = full_grad()
        g_sum, b_sum, num_sum = full_sums()
        q_new = q_of(g_sum, b_sum, num_sum)
        if q_new < q_cur * (1.0 - 1e-9):
            raise NumericalError("quotient decreased across a sweep")
        q_cur = q_new
        if q_cur > c_bound:
            raise NumericalError(
                f"quotient {q_cur} exceeded the sharp bound {c_bound}; discretization broke"
            )
        history.append(q_cur)

    return as_function(sweep_history=history), q_cur
