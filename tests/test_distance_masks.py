"""Thresholded distance masks: the truncation collar, the eps-interior and dilation.

``within_distance`` forms these masks without a full-grid distance
transform.  ``ndimage.distance_transform_edt`` is the oracle here:
every mask must equal its threshold bit for bit, except where offsets of one
squared length fall on both sides of the threshold.  There the helper's
stated rule (a length is within when its shortest offset is) is checked
against brute force.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy import ndimage

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from gmtlab import domains  # noqa: E402
from gmtlab.calculus import from_expression, interior_region, minkowski_steiner  # noqa: E402
from gmtlab.domains import _MAX_GRID_CELLS, GridDomain, _within_unit, dilate, make_ball, within_distance  # noqa: E402
from gmtlab.errors import InvalidArgumentError  # noqa: E402
from gmtlab.inequalities import proof_trace  # noqa: E402

# dyadic spacings make every offset's float distance exact; the others round
_SPACINGS = [1 / 16, 1 / 8, 0.1, 1 / 3, 0.07]


@st.composite
def small_domains(draw):
    """A random mask in 2D or 3D that keeps the one-cell false margin."""
    dim = draw(st.sampled_from([2, 3]))
    sides = [draw(st.integers(3, 13 if dim == 2 else 7)) for _ in range(dim)]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mask = np.zeros(sides, dtype=bool)
    mask[(slice(1, -1),) * dim] = rng.random([s - 2 for s in sides]) < draw(st.floats(0.2, 0.95))
    return GridDomain(draw(st.sampled_from(_SPACINGS)), np.zeros(dim), mask)


@st.composite
def widths(draw, h):
    """eps on a multiple of h, off it, or h (the collar's 1.5h threshold)."""
    kind = draw(st.sampled_from(["collar", "on", "off"]))
    if kind == "collar":
        return h
    if kind == "on":
        return draw(st.integers(0, 5)) * h
    return draw(st.floats(0.0, 5.0)) * h


def _distances(offsets, h):
    """scipy's formula: sqrt of the per-axis squares of d * h, summed in axis order."""
    dt = offsets * h
    dt *= dt
    return np.sqrt(np.add.reduce(dt, axis=0))


def _straddles(t, h, n, strict):
    """Whether offsets of one squared length fall on both sides of t."""
    reach = int(t / h) + 2
    offsets = np.indices((reach + 1,) * n).reshape(n, -1)
    lengths = np.sum(offsets * offsets, axis=0)
    inside = _distances(offsets, h) < t if strict else _distances(offsets, h) <= t
    return any(len(set(inside[lengths == k])) > 1 for k in np.unique(lengths))


def _length_rule(source, t, h, strict):
    """Brute force of the stated rule: a cell is within t when the shortest
    offset (in float distance) of its squared index distance to the sources is."""
    n = source.ndim
    cells = np.indices(source.shape).reshape(n, -1)
    src = np.argwhere(source).T
    if src.shape[1] == 0:
        return np.zeros(source.shape, dtype=bool)
    offsets = cells[:, :, None] - src[:, None, :]
    lengths = np.sum(offsets * offsets, axis=0).min(axis=1)
    box = np.indices((math.isqrt(int(lengths.max())) + 1,) * n).reshape(n, -1)
    least = np.full(int(lengths.max()) + 1, np.inf)
    in_box = np.sum(box * box, axis=0)
    keep = in_box < len(least)
    np.minimum.at(least, in_box[keep], _distances(box[:, keep], h))
    dist = least[lengths]
    return (dist < t if strict else dist <= t).reshape(source.shape)


def _threshold(t, strict):
    """within_distance's threshold for the cells at most t from a source, or below t if ``strict``."""
    return math.nextafter(t, -math.inf) if strict else t


def _edt(mask, h):
    return ndimage.distance_transform_edt(mask, sampling=h)


@settings(max_examples=60)
@given(dom=small_domains(), data=st.data())
def test_thresholds_match_the_edt(dom, data):
    h, n, mask = dom.spacing, dom.dim, dom.mask
    length = data.draw(st.integers(0, 30))
    side = data.draw(st.sampled_from([-math.inf, math.inf]))
    eps = data.draw(widths(h))
    # an offset's own float distance: with a non-dyadic h, often a length whose offsets straddle it
    offset = np.array([data.draw(st.integers(0, 6)) for _ in range(n)])
    thresholds = [1.5 * h, eps + 0.5 * h, float(np.nextafter(math.sqrt(length) * h, side)),
                  float(_distances(offset, h))]
    dist = _edt(mask, h)
    for t in thresholds:
        for strict in (False, True):
            got = within_distance(~mask, _threshold(t, strict), h)
            assert np.array_equal(got, _length_rule(~mask, t, h, strict))
            if not _straddles(t, h, n, strict):
                assert np.array_equal(got, dist < t if strict else dist <= t)

    # the collar and the interior as truncate and proof_trace form them
    if not _straddles(1.5 * h, h, n, False):
        assert np.array_equal(mask & within_distance(~mask, 1.5 * h, h), mask & (dist <= 1.5 * h))
    t = eps + 0.5 * h
    if not _straddles(t, h, n, True):
        assert np.array_equal(interior_region(dom, eps), dist >= t)
    if mask.any() and not _straddles(t, h, n, False):
        grown = dilate(dom, eps)
        pad = int(np.ceil(eps / h)) + 2 if eps else 0
        assert np.array_equal(grown.mask, _edt(~np.pad(mask, pad), h) <= t)
        assert np.array_equal(grown.origin, dom.origin - pad * h)


def _ref_within_unit(source, cut):
    """The source ORed with its shifts by every unit-cube offset shorter than the cut."""
    out = source.copy()
    for offset in itertools.product((-1, 0, 1), repeat=source.ndim):
        if 0 < sum(o * o for o in offset) < cut:
            dst = tuple(slice(max(-o, 0), s - max(o, 0)) for o, s in zip(offset, source.shape))
            src = tuple(slice(max(o, 0), s + min(o, 0)) for o, s in zip(offset, source.shape))
            out[dst] |= source[src]
    return out


@settings(max_examples=40)
@given(dom=small_domains(), cut=st.integers(1, 4))
def test_unit_cuts_match_the_offset_loop(dom, cut):
    # cuts above the dimension take the separable 3^n box
    for source in (dom.mask, ~dom.mask):
        assert np.array_equal(_within_unit(source, cut), _ref_within_unit(source, cut))


def test_proof_disk_masks_match_the_edt():
    """The proof workload's grid: the eps-interior at 26 cells and the collar."""
    dom = make_ball((0.0, 0.0), 1.0, 1 / 256)
    h = dom.spacing
    dist = _edt(dom.mask, h)
    for eps in (0.05, 0.1, 0.35):
        assert np.array_equal(interior_region(dom, eps), dist >= eps + 0.5 * h)
    assert np.array_equal(dom.mask & within_distance(~dom.mask, 1.5 * h, h), dom.mask & (dist <= 1.5 * h))


@pytest.mark.parametrize("shape, sources", [
    ((14, 5), [(2, 0), (11, 4)]),
    ((5, 6, 4), [(2, 2, 0), (2, 1, 3)]),
    ((11, 12), [(5, 0), (5, 1), (5, 2), (8, 0)]),
], ids=["row_ends_2d", "row_ends_3d", "shared_starts"])
def test_clamped_stamps_match_the_edt(shape, sources):
    """Sources on the first and last cells of short rows: at the larger
    thresholds a stamp reaches past both ends of its row, and no interval may
    spill into the next one.  A run of sources at a row's start and the cells
    beside it: several stamps clamped to one start with different ends, of
    which the union keeps the farthest (the running maximum of the sorted ends)."""
    h = 1 / 8  # dyadic: no squared length straddles a threshold
    source = np.zeros(shape, dtype=bool)
    source[tuple(np.transpose(sources))] = True
    dist = _edt(~source, h)
    for t in (2.5 * h, 3.0 * h, 4.2 * h, 6.5 * h, 9.0 * h):
        for strict in (False, True):
            assert np.array_equal(within_distance(source, _threshold(t, strict), h), dist < t if strict else dist <= t)


def _slab_sources(shape, rows_per_slab, kind):
    """Sources for the slab union at about ``rows_per_slab`` rows a slab, and
    that slab size in cells; h = 1/8 and ``t = 3h`` give a source the stamp
    [c - 3, c + 4) along its row."""
    cells = rows_per_slab * math.prod(shape[1:])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(domains, "_SLAB_CELLS", cells)
        slabs = domains._row_slabs(shape)
    assert len(slabs) >= 3
    first, last = slabs[1].start, slabs[1].stop - 1  # a middle slab's edge rows
    lead = (0,) * (len(shape) - 2)  # the first plane of a 3D grid
    source = np.zeros(shape, dtype=bool)
    if kind == "slab_edge_rows":
        source[(first,) + lead + (4,)] = source[(last,) + lead + (shape[-1] - 3,)] = True
    elif kind == "touching":
        # [2, 9) then [9, 16) on the sources' row, one merged run
        source[(first,) + lead + (5,)] = source[(first,) + lead + (12,)] = True
    elif kind == "nested":
        # on the first row, column 6 (G = 9) stamps [6, 7) inside the source's
        # [2, 9), and column 10 (G = 1) then [8, 13): one run, as ends are
        # carried forward by their running maximum
        source[(first,) + lead + (5,)] = source[(first + 3,) + lead + (6,)] = True
        source[(first + 1,) + lead + (10,)] = True
    elif kind == "full_row":
        source[(last,) + lead] = True  # a row made only of sources, its inner cells skipped
        source[(first,) + lead + (shape[-1] // 2,)] = True
    return source, cells


@pytest.mark.parametrize("shape", [(23, 17), (14, 4, 17)], ids=["2d", "3d"])
@pytest.mark.parametrize("kind", ["slab_edge_rows", "touching", "nested", "full_row"])
def test_slab_union_matches_the_edt(monkeypatch, shape, kind):
    """The union of the stamped intervals is taken one row slab at a time;
    at slabs of a few rows it must still give the EDT threshold."""
    h = 1 / 8  # dyadic: no squared length straddles a threshold
    source, cells = _slab_sources(shape, 3, kind)
    dist = _edt(~source, h)
    monkeypatch.setattr(domains, "_SLAB_CELLS", cells)
    for t in (2.5 * h, 3.0 * h, 4.2 * h, 6.5 * h):
        for strict in (False, True):
            assert np.array_equal(within_distance(source, _threshold(t, strict), h), dist < t if strict else dist <= t)


@settings(max_examples=40)
@given(dom=small_domains(), rows=st.integers(1, 4), data=st.data())
def test_thresholds_match_the_edt_in_small_slabs(dom, rows, data):
    h, mask = dom.spacing, dom.mask
    t = data.draw(widths(h)) + 0.5 * h
    dist = _edt(mask, h)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(domains, "_SLAB_CELLS", rows * math.prod(mask.shape[1:]))
        for strict in (False, True):
            got = within_distance(~mask, _threshold(t, strict), h)
            assert np.array_equal(got, _length_rule(~mask, t, h, strict))
            if not _straddles(t, h, dom.dim, strict):
                assert np.array_equal(got, dist < t if strict else dist <= t)


def _ref_squared_cut(t, h, n):
    """The least squared length whose offsets all lie beyond t, by brute force
    over every offset in a box that holds each length up to past t/h."""
    side = int(t / h) + 3
    box = np.indices((side,) * n).reshape(n, -1)
    lengths = np.sum(box * box, axis=0)
    least = np.full(int(lengths.max()) + 1, np.inf)
    np.minimum.at(least, lengths, _distances(box, h))
    complete = least[: (side - 1) ** 2 + 1]  # every offset of these lengths is in the box
    return int(np.flatnonzero((complete > t) & np.isfinite(complete))[0])


@pytest.mark.parametrize("slab", [None, 20], ids=["one_block", "blocks_of_rows"])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("h", [1 / 8, 1 / 16, 0.1, 1 / 3, 0.07])
def test_squared_cut_matches_the_whole_box(monkeypatch, n, h, slab):
    """At each offset's own float distance and one ulp to either side (where
    lengths straddle the threshold with a non-dyadic h), at reals between, and
    at the cap past a small grid's diagonal that within_distance applies.  At
    ``_SLAB_CELLS`` 20 the 3D heads come in blocks of one to several rows."""
    if slab is not None:
        monkeypatch.setattr(domains, "_SLAB_CELLS", slab)
    rng = np.random.default_rng(n * 1000 + int(1 / h))
    ts = [0.0, 5e-324, 0.5 * h, 1.5 * h]
    for _ in range(25):
        t0 = float(_distances(rng.integers(0, 9, n), h))
        ts += [math.nextafter(t0, -math.inf), t0, math.nextafter(t0, math.inf), float(rng.uniform(0, 12)) * h]
    for shape in ((9, 11), (4, 5, 6), (2, 2), (3, 1, 2)):
        cap = h * (math.hypot(*shape) + 1)
        ts += [math.nextafter(cap, -math.inf), cap]
    for t in ts:
        assert domains._squared_cut(t, h, n) == _ref_squared_cut(t, h, n), t


def test_squared_cut_holds_a_few_blocks_of_scratch():
    # the 3D heads are taken at most _SLAB_CELLS a block: at a reach of 1,000
    # cells all of them at once were 62 MiB; 2D takes its one row of heads
    h = 1 / 8
    for n in (2, 3):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            cut = domains._squared_cut(1000 * h, h, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cut == 1000 ** 2 + 1
        assert peak < 2 * 2 ** 20


def test_flat_indices_fit_in_int32():
    # within_distance holds its axis-0 distances in int32; they reach about
    # three times a grid side, and no side is longer than the cell count
    assert _MAX_GRID_CELLS < 2 ** 31


def test_longest_int32_reach_matches_the_edt():
    """The capped squared distances are int32, so (reach + 1)^2 must fit.  On a
    long 2D grid the longest reach that fits, 46,339 cells, still gives the EDT
    threshold, and one cell more is refused before any grid is formed."""
    assert 46340 ** 2 <= np.iinfo(np.int32).max < 46341 ** 2
    h = 1 / 8
    source = np.zeros((46345, 3), dtype=bool)
    source[0, 1] = True
    dist = _edt(~source, h)
    for t, strict in ((46339.5 * h, False), (46339.5 * h, True), (46340 * h, True)):
        got = within_distance(source, _threshold(t, strict), h)
        assert got[46339].all() and not got[46341:].any()
        assert np.array_equal(got, dist < t if strict else dist <= t)
    for t, strict in ((46340 * h, False), (46340.5 * h, True)):
        with pytest.raises(InvalidArgumentError, match="^a distance of 46340 cells overflows the int32 squared"):
            within_distance(source, _threshold(t, strict), h)


def test_empty_source_reaches_nothing():
    empty = np.zeros((6, 7, 5), dtype=bool)
    for t in (0.05, 1.0):
        assert not within_distance(empty, t, 0.1).any()
    dom = GridDomain(0.1, np.zeros(2), np.zeros((5, 5), dtype=bool))
    assert not dilate(dom, 0.3).mask.any()


def test_straddled_length_counts_as_within():
    """At h = 1/3 the offsets (5, 0) and (3, 4) of squared length 25 round to
    distances one ulp apart; at a threshold between them the EDT keeps one
    cell and drops the other, while the stated rule keeps both."""
    h = 1 / 3
    source = np.zeros((13, 13), dtype=bool)
    source[6, 6] = True
    short, long = sorted(float(_distances(np.array(d), h)) for d in ((5, 0), (3, 4)))
    assert short < long
    dist = _edt(~source, h)
    assert (dist[11, 6] <= short) != (dist[9, 10] <= short)
    got = within_distance(source, short, h)
    assert got[11, 6] and got[9, 10] and got[6, 1] and got[10, 3]
    assert not within_distance(source, math.nextafter(short, -math.inf), h)[11, 6]


@pytest.mark.parametrize("shape", [(9, 11), (4, 5, 6)])
def test_corner_source_reaches_across_the_grid(shape):
    """A source on the grid's corner: the farthest cells need the longest shift
    along every axis, and large thresholds reach the opposite corner."""
    h = 0.1
    source = np.zeros(shape, dtype=bool)
    source[(0,) * len(shape)] = True
    dist = _edt(~source, h)
    for t in (2.5 * h, 5.0 * h, 7.1 * h, 12.9 * h, 1e3):
        for strict in (False, True):
            assert np.array_equal(within_distance(source, _threshold(t, strict), h), dist < t if strict else dist <= t)


def test_threshold_past_the_grid_reaches_every_cell():
    """A huge finite eps is legal: nothing is that deep inside, and every cell
    is that near a source."""
    dom = make_ball((0.0, 0.0, 0.0), 0.3, 0.1)
    assert not interior_region(dom, 1e300).any()
    for strict in (False, True):
        assert within_distance(dom.mask, _threshold(1e300, strict), 0.1).all()
        assert within_distance(dom.mask, _threshold(50.0, strict), 0.1).all()


def test_threshold_below_every_source_reaches_nothing():
    source = np.zeros((5, 5), dtype=bool)
    source[2, 2] = True
    assert not within_distance(source, math.nextafter(0.0, -math.inf), 0.1).any()
    assert np.array_equal(within_distance(source, 0.0, 0.1), source)


class TestBadEps:
    @pytest.fixture(scope="class")
    def disk(self):
        return make_ball((0.0, 0.0), 0.5, 1 / 32)

    @pytest.mark.parametrize("eps", [math.inf, -math.inf, math.nan, -1.0])
    def test_dilate(self, disk, eps):
        with pytest.raises(InvalidArgumentError, match="eps must be finite and nonnegative"):
            dilate(disk, eps)

    @pytest.mark.parametrize("eps", [math.inf, math.nan, -1.0])
    def test_interior_region(self, disk, eps):
        with pytest.raises(InvalidArgumentError, match="eps must be finite and nonnegative"):
            interior_region(disk, eps)

    @pytest.mark.parametrize("eps_list", [[math.nan], [math.inf, 0.5], [0.5, math.nan]])
    def test_minkowski_steiner(self, disk, eps_list):
        with pytest.raises(InvalidArgumentError, match="eps must be finite and nonnegative"):
            minkowski_steiner(disk, eps_list)

    @pytest.mark.parametrize("eps", [math.inf, math.nan])
    def test_proof_trace(self, disk, eps):
        u = from_expression(disk, "max(0, 1 - r*r)", lipschitz=2.0)
        with pytest.raises(InvalidArgumentError, match="eps must be positive and finite"):
            proof_trace(u, eps)
