"""Grid values evaluated on the whole grid box, and chain norms read off the convolution.

``from_expression`` evaluates its expression once on the grid's sparse
centre lattice (per-axis coordinate arrays that broadcast together) and once
on the columns of the boundary cloud; nothing is gathered or scattered.  The
oracle is the expression evaluated at the gathered ``cell_centers()`` and at
contiguous copies of the cloud's columns: every interior value and every
trace value must equal it bit for bit, and ``r`` must have the bits of
``np.sqrt(np.sum(points * points, axis=-1))``.  ``check_extended_sobolev``
reads each 2D chain norm off one spectrum of u (Parseval's identity) and each
3D one off the scrubbed convolution; its oracles are the spatial path
(``_lq`` of ``_convolved``), ``lq_norm(mollify(u, k), q)`` and the norm of a
mollified function whose convolution is padded to its grid box before it is
scrubbed and masked.  The 3D norms have their bits; the 2D ones lie within
1e-13 of them (the largest move over the fixed inputs here is 3.3e-16 relative).
"""

import json
import math
import os
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from gmtlab import calculus as calc  # noqa: E402
from gmtlab.domains import (  # noqa: E402
    GridDomain,
    domain_from_spec,
    extract_boundary,
    make_annulus,
    make_ball,
    make_box,
    rasterize_polygon,
)
from gmtlab.errors import GmtLabError, InvalidArgumentError  # noqa: E402
from gmtlab.expressions import Expression  # noqa: E402
from gmtlab.inequalities import check_extended_sobolev  # noqa: E402
from gmtlab.suite import build_function  # noqa: E402

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_SPACINGS = {2: [1 / 16, 0.1, 1 / 13, 0.07], 3: [0.1, 1 / 7, 0.15]}
_OFFSETS = [0.0, 0.37, -1.3, 0.123, 12.345]


def _same(a, b) -> bool:
    """Equal bit for bit where finite (so a signed zero counts), nan where nan."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    finite = np.isfinite(a)
    return (np.array_equal(np.isnan(a), np.isnan(b)) and np.array_equal(finite, np.isfinite(b))
            and np.array_equal(a[~np.isnan(a)].view(np.int64), b[~np.isnan(b)].view(np.int64)))


@st.composite
def domains_(draw, dims=(2, 3)):
    dim = draw(st.sampled_from(dims))
    h = draw(st.sampled_from(_SPACINGS[dim]))
    centre = [draw(st.sampled_from(_OFFSETS)) for _ in range(dim)]
    size = draw(st.floats(0.45, 1.0 if dim == 2 else 0.7))
    kinds = ["ball", "box", "annulus"] + (["polygon"] if dim == 2 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "ball":
        return make_ball(centre, size, h)
    if kind == "box":
        return make_box(centre, [size * draw(st.floats(0.5, 1.5)) for _ in range(dim)], h)
    if kind == "annulus":
        return make_annulus(centre, size, size * draw(st.floats(0.2, 0.6)), h)
    # a star around the centre: angles in order make the polygon simple
    k = draw(st.integers(3, 7))
    angles = np.sort(draw(st.lists(st.floats(0.0, 2 * math.pi), min_size=k, max_size=k, unique=True)))
    radii = draw(st.lists(st.floats(0.3, 1.0), min_size=k, max_size=k))
    verts = [(centre[0] + r * math.cos(t), centre[1] + r * math.sin(t)) for r, t in zip(radii, angles)]
    try:
        return rasterize_polygon(verts, h)
    except InvalidArgumentError:  # a sliver of zero area
        return make_ball(centre, size, h)


def _expressions(dim):
    names = ["x", "y", "r", "pi", "0.5", "2", "3.25", "1e-3", "0"] + (["z"] if dim == 3 else [])

    def grow(children):
        binary = st.tuples(children, st.sampled_from(["+", "-", "*", "/", "^"]), children).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})")
        unary = st.tuples(st.sampled_from(["abs", "exp", "sqrt", "-"]), children).map(
            lambda t: f"{t[0]}({t[1]})")
        pair = st.tuples(st.sampled_from(["min", "max"]), children, children).map(
            lambda t: f"{t[0]}({t[1]}, {t[2]})")
        return st.one_of(binary, unary, pair)

    return st.recursive(st.sampled_from(names), grow, max_leaves=10)


@st.composite
def cases(draw):
    dom = draw(domains_())
    return dom, draw(_expressions(dom.dim))


@given(cases())
@settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
def test_grid_values_are_the_pointwise_values_at_the_cell_centres(case):
    dom, text = case
    expr = Expression(text)
    centres = dom.cell_centers()
    ref = np.broadcast_to(expr(centres.T), len(centres))
    cloud = extract_boundary(dom)
    ref_trace = np.broadcast_to(expr(np.ascontiguousarray(cloud.points.T)), len(cloud))
    try:
        u = calc.from_expression(dom, text)
    except InvalidArgumentError as exc:
        # refused only for a non-finite value on an interior cell
        assert str(exc) == "values must be finite on every interior cell"
        assert not np.isfinite(ref).all()
        return
    assert _same(u.values[dom.mask], ref)
    assert not u.values[~dom.mask].any() and not np.signbit(u.values[~dom.mask]).any()
    assert _same(u.trace, ref_trace)


@pytest.mark.parametrize("build", [
    lambda: make_ball((0.37, -1.3), 0.9, 0.07),
    lambda: make_annulus((0.123, 12.345, -1.3), 0.7, 0.3, 0.1),
    lambda: make_box((-1.3, 0.37, 0.123), (0.6, 0.5, 0.4), 1 / 7),
])
def test_radius_has_the_bits_of_the_stacked_sum(build):
    dom = build()
    for pts in (dom.cell_centers(), extract_boundary(dom).points):
        want = np.sqrt(np.sum(pts * pts, axis=-1))
        assert _same(Expression("r")(pts.T), want)
    grid = calc.from_expression(dom, "r").values
    assert _same(grid[dom.mask], np.sqrt(np.sum(dom.cell_centers() ** 2, axis=-1)))


def test_no_cell_centre_gather(monkeypatch, disk_128):
    def refuse(self):
        raise AssertionError("cell_centers() called")

    monkeypatch.setattr(GridDomain, "cell_centers", refuse)
    u = calc.from_expression(disk_128, "max(0, 1 - r*r)")
    assert calc.lq_norm(u, 2.0) > 0


def test_exterior_non_finite_values_are_dropped_silently():
    # sqrt(1 - r*r) is nan on the exterior cells of the unit disk, finite inside
    dom = make_ball((0.0, 0.0), 1.0, 1 / 32)
    grid = Expression("sqrt(1 - r*r)")(calc._centers_grid(dom.origin, dom.shape, dom.spacing))
    assert np.isfinite(grid[dom.mask]).all() and not np.isfinite(grid[~dom.mask]).all()
    u = calc.from_expression(dom, "sqrt(1 - r*r)")  # no warning: pytest makes one an error
    assert np.array_equal(u.values, np.where(dom.mask, grid, 0.0))


def _standard_entries():
    with open(os.path.join(REPO, "suites", "standard.json"), encoding="utf-8") as fh:
        entries = json.load(fh)["entries"]
    return {e["domain"]["kind"]: e for e in entries if "sobolev_extended" in e["checks"]}


def _padded_lq(u, k, q):
    """The L_q norm of the index-k mollification built as a function on its padded grid:
    the convolution padded to the grid box first, then scrubbed and masked there."""
    h, n = u.domain.spacing, u.domain.dim
    m = int(math.floor(1.0 / k / h))
    conv = np.pad(calc.fft_convolve(u.values, calc.build_mollifier(k, h, n) * h ** n), 2)
    conv[np.abs(conv) < 1e-13 * float(np.max(np.abs(conv)))] = 0.0
    dom = GridDomain(h, u.domain.origin - (m + 2) * h, (conv != 0.0) | np.pad(u.domain.mask, m + 2))
    mk = calc.GridFunction(dom, conv, np.zeros(len(extract_boundary(dom))))
    return float(np.sum(np.abs(mk.values[dom.mask]) ** q) * h ** n) ** (1.0 / q)


# the 2D chain's norms against the spatial path's: a few ulps apart by Parseval's identity
_CHAIN_REL = 1e-13


def _assert_chain_norm(u, got, want):
    assert math.isfinite(want)
    if u.domain.dim == 3:  # q = 3/2: read off the scrubbed convolution, as the references are
        assert got.hex() == want.hex()
    else:
        assert abs(got - want) <= _CHAIN_REL * want


def _spatial_chain(u, k):
    """The spatial path's chain entry for k: the norm of ``_convolved``'s values, or its error text."""
    try:
        conv, mask = calc._convolved(u, k)
    except GmtLabError as exc:
        return str(exc)
    n = u.domain.dim
    return calc._lq(conv, mask, n / (n - 1), u.h ** n)


@pytest.mark.parametrize("build", [
    lambda: calc.from_expression(rasterize_polygon([(0, 0), (1, 0), (0, 1)], 1 / 64), "x + 3*y*y"),
    lambda: calc.from_expression(make_ball((0.37, -1.3), 0.8, 1 / 48), "max(0, 1 - r) - x"),
    lambda: calc.from_expression(make_ball((0.1, -0.2, 0.3), 0.6, 1 / 40), "x + 2*y*z - 0.1"),
])
def test_chain_norms_match_a_mollification_built_on_its_padded_grid(build):
    # asymmetric domains and values, so a misplaced mask or margin would show
    u = build()
    n = u.domain.dim
    chain = check_extended_sobolev(u, (4, 8, 16)).metadata["mollified_chain"]
    assert [link["k"] for link in chain] == [4, 8, 16]
    for link in chain:
        _assert_chain_norm(u, link["lq"], _padded_lq(u, link["k"], n / (n - 1)))


@pytest.mark.parametrize("kind", ["ball", "annulus"])
def test_chain_norms_are_those_of_the_mollified_functions(kind):
    entry = _standard_entries()[kind]
    dom = domain_from_spec(entry["domain"])
    u = build_function(entry["function"], dom)
    chain = check_extended_sobolev(u, (4, 8, 16)).metadata["mollified_chain"]
    assert [link["k"] for link in chain] == [4, 8, 16]
    for link in chain:
        _assert_chain_norm(u, link["lq"], calc.lq_norm(calc.mollify(u, link["k"]), 2.0))


_SIGNED = ["x - 0.3*y", "max(0, 1 - r) - x", "x*y - 0.1", "(x - 0.2)^3 + y", "2*y*y - exp(x)", "1"]


@st.composite
def chain_cases(draw):
    dom = draw(domains_(dims=(2,)))
    text = f"{draw(st.sampled_from([1, -1, 1e-3, 1e3]))} * ({draw(st.sampled_from(_SIGNED))})"
    ks = draw(st.lists(st.sampled_from([1, 2, 3, 4, 5, 8]), min_size=1, max_size=3))
    # 1/16 is below two cells at every 2D spacing drawn
    ks.insert(draw(st.integers(0, len(ks))), 16)
    return dom, text, ks


@given(chain_cases())
@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
def test_spectral_chain_matches_the_spatial_path(case):
    dom, text, ks = case
    u = calc.from_expression(dom, text)
    chain = check_extended_sobolev(u, ks).metadata["mollified_chain"]
    assert [link["k"] for link in chain] == ks
    for link in chain:
        want = _spatial_chain(u, link["k"])
        if isinstance(want, str):
            assert link == {"k": link["k"], "error": want}
        else:
            assert abs(link["lq"] - want) <= _CHAIN_REL * want


@pytest.mark.parametrize("text", ["1e150*(1 - x)", "1e-150*(1 - x)"])
def test_spectral_chain_at_extreme_scales(text):
    # |U|^2 of the unscaled 1e150 values would overflow to inf
    u = calc.from_expression(make_ball((0.0, 0.0), 1.0, 1 / 128), text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        chain = check_extended_sobolev(u, (4, 8, 16)).metadata["mollified_chain"]
    for link in chain:
        want = _spatial_chain(u, link["k"])
        assert math.isfinite(link["lq"]) and abs(link["lq"] - want) <= _CHAIN_REL * want


@pytest.mark.parametrize("dim, calls", [(2, (4, 0)), (3, (6, 3))])
def test_chain_transform_counts(monkeypatch, dim, calls):
    # 2D: one spectrum of u and one per kernel, no inverse; 3D: one product per k
    u = calc.indicator_function(make_ball((0.0,) * dim, 1.0, 1 / 32 if dim == 2 else 1 / 16))
    counts = {"rfftn": 0, "irfftn": 0}
    for name in counts:
        def counting(*args, _f=getattr(np.fft, name), _name=name, **kwargs):
            counts[_name] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counting)
    check_extended_sobolev(u, (2, 4, 8) if dim == 3 else (4, 8, 16))
    assert (counts["rfftn"], counts["irfftn"]) == calls
