"""The per-axis covering kernels against their row-major forms, bit for bit.

``_fps_centers`` forms only squared distances over a slab and takes square
roots and exact compares on the rows that pass its bound, and
``_diameter_candidates`` takes its norms on per-axis rows.  The references
below are the same algorithms on ``(N, n)`` rows: the greedy run takes
``np.linalg.norm`` and both compares on every slab row, and the candidates
come from row-major gathers and norms.  Every output (centers, counts, each
owner and tie snapshot, the kept members and their bounds) must be equal,
on grid clouds with non-dyadic spacings and origins, on lattice clouds with
duplicate points and coincident centers, on heavy clusters whose cells have
L - R much smaller than R, on clouds whose squared distances differ by an
ulp where their square roots tie, and on clouds whose squares are subnormal.
Grid clouds are given both as the cloud's own ``points`` (the transposed
view of its per-axis ``coords``) and as a C-ordered copy.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from gmtlab.domains import (  # noqa: E402
    GridDomain,
    extract_boundary,
    make_annulus,
    make_ball,
    make_box,
    rasterize_polygon,
)
from gmtlab.errors import InvalidArgumentError  # noqa: E402
from gmtlab.hausdorff import (  # noqa: E402
    _ball_groups,
    _box_groups,
    _diameter_candidates,
    _fps_centers,
)

_SPACINGS = [0.1, 0.07, 1 / 12]
_SHIFTS = [0.0, 0.37, -1.3, 12.345]


def _fps_rows(points, thresholds, limit=None):
    """The slab-updated greedy run on rows: every slab row gets np.linalg.norm
    of its row-major difference and both exact compares."""
    start = int(np.lexsort(points.T[::-1])[0])
    centers = [start]
    counts, owners = [], []
    dist = np.linalg.norm(points - points[start], axis=1)
    owner = np.zeros(len(points), dtype=np.intp)
    tied = np.zeros(len(points), dtype=bool)
    axis = int(np.argmax(np.ptp(points, axis=0)))
    by_axis = np.argsort(points[:, axis], kind="stable")
    rows = points[by_axis]
    sdist = dist[by_axis]
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
        lo = np.searchsorted(rows[:, axis], c[axis] - reach, side="left")
        hi = np.searchsorted(rows[:, axis], c[axis] + reach, side="right")
        d = np.linalg.norm(rows[lo:hi] - c, axis=1)
        old = sdist[lo:hi]
        won = np.flatnonzero(d < old)
        tie = np.flatnonzero(d == old)
        old[won] = d[won]
        dist[by_axis[lo + won]] = d[won]
        owner[by_axis[lo + won]] = len(centers)
        tied[by_axis[lo + won]] = False
        tied[by_axis[lo + tie]] = True
        centers.append(nxt)


def _diameter_candidates_rows(points, order, bounds):
    """The diameter candidates from row-major gathers, centroids and norms."""
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


def _assert_same_run(points, thresholds, limit=None):
    got, want = _fps_centers(points, thresholds, limit), _fps_rows(points, thresholds, limit)
    assert got[0].dtype == want[0].dtype and np.array_equal(got[0], want[0])
    assert got[1] == want[1]
    for cut, ref in zip(got[2], want[2]):
        if ref is None:
            assert cut is None
        else:
            for a, b in zip(cut, ref):
                assert a.dtype == b.dtype and np.array_equal(a, b)
    return want


def _assert_same_candidates(points, order, bounds):
    got, want = _diameter_candidates(points, order, bounds), _diameter_candidates_rows(points, order, bounds)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def _check_cloud(points, top, n_cuts=3, limit=None):
    """Both kernels against their references: the greedy run cut at ``top``
    halved ``n_cuts`` times, and the candidates of its ball cells and of
    boxes at two of those scales."""
    scales = [top / 2 ** j for j in range(n_cuts)]
    centers, counts, owners = _assert_same_run(points, scales, limit)
    for count, cut in zip(counts, owners):
        if count is not None:
            _assert_same_candidates(points, *_ball_groups(points, centers[:count], *cut))
    if np.ptp(points, axis=0).max() > 0:
        for side in scales[:2]:
            _assert_same_candidates(points, *_box_groups(points, side))


@st.composite
def grid_clouds(draw):
    """The boundary cloud of a small ball, box, annulus or polygon, on a grid
    with a non-dyadic spacing, moved to a non-dyadic origin."""
    kind = draw(st.sampled_from(["ball", "box", "annulus", "polygon"]))
    dim = draw(st.sampled_from([2, 3])) if kind in ("ball", "box") else 2
    h = draw(st.sampled_from(_SPACINGS))
    center = [draw(st.floats(-0.3, 0.3)) for _ in range(dim)]
    size = st.floats(0.3, 0.8) if dim == 2 else st.floats(0.3, 0.6)
    if kind == "ball":
        dom = make_ball(center, draw(size), h)
    elif kind == "box":
        dom = make_box(center, [draw(size) for _ in range(dim)], h)
    elif kind == "annulus":
        r_outer = draw(size)
        dom = make_annulus(center, r_outer, r_outer * draw(st.floats(0.3, 0.7)), h)
    else:
        verts = [[draw(st.floats(-0.8, 0.8)), draw(st.floats(-0.8, 0.8))] for _ in range(draw(st.integers(3, 6)))]
        try:
            dom = rasterize_polygon(verts, h)
        except InvalidArgumentError:  # zero-area or self-crossing vertex lists
            assume(False)
        assume(dom.mask.any())
    shift = np.array([draw(st.sampled_from(_SHIFTS)) for _ in range(dim)])
    return extract_boundary(GridDomain(h, dom.origin + shift, dom.mask))


@settings(max_examples=40)
@given(cloud=grid_clouds(), k=st.sampled_from([2.0, 4.0, 8.0]), limit=st.sampled_from([None, 5]))
def test_grid_clouds(cloud, k, limit):
    for points in (cloud.points, np.ascontiguousarray(cloud.points)):
        _check_cloud(points, k * cloud.resolution, limit=limit)


def _lattice(rng, n, dim, levels, dups):
    # a coarse dyadic lattice with repeated rows: coincident points and exact ties
    pts = rng.integers(-levels, levels + 1, (n, dim)) / levels
    return np.concatenate([pts, pts[rng.integers(0, n, dups)]])


def _heavy_cluster(rng, n, dim):
    # a clump of radius 1e-6 and one far point: the farthest pair of a cell
    # holding both runs from that point through the clump, so L - R is about
    # the clump's radius plus its offset from the centroid, while R is about 1
    clump = 0.25 + 1e-6 * rng.standard_normal((n, dim))
    return np.concatenate([clump, rng.uniform(-1.0, -0.5, (1, dim)), clump[:2]])


def _ulp_ties(rng, n, dim, steps, shift):
    # two centers ``steps`` ulps off mirror images across the plane x = 0,
    # and points on that plane: their squared distances to the two differ by
    # an ulp or so while many square roots tie
    a = b = rng.uniform(0.5, 2.0)
    for _ in range(steps):
        b = np.nextafter(b, np.inf)
    pts = np.zeros((n + 2, dim))
    pts[0, 0], pts[1, 0] = -a, b
    pts[2:, 1:] = rng.uniform(-0.7 * a, 0.7 * a, (n, dim - 1))
    return pts + shift


@settings(max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(["lattice", "cluster", "ulp_ties", "tiny"]),
       n=st.integers(1, 300), dim=st.sampled_from([2, 3]), levels=st.sampled_from([2, 4, 8]),
       dups=st.integers(0, 40), n_cuts=st.integers(1, 4), limit=st.one_of(st.none(), st.integers(1, 30)))
@example(seed=0, kind="lattice", n=1, dim=2, levels=2, dups=0, n_cuts=2, limit=None)
@example(seed=1, kind="tiny", n=200, dim=3, levels=8, dups=20, n_cuts=4, limit=None)
@example(seed=2, kind="cluster", n=300, dim=2, levels=2, dups=0, n_cuts=4, limit=None)
def test_synthetic_clouds(seed, kind, n, dim, levels, dups, n_cuts, limit):
    rng = np.random.default_rng(seed)
    if kind == "lattice":
        points, top = _lattice(rng, n, dim, levels, dups), 0.5
    elif kind == "cluster":
        points, top = _heavy_cluster(rng, n, dim), 0.5
    elif kind == "ulp_ties":
        points = _ulp_ties(rng, n, dim, int(rng.integers(0, 3)), rng.choice(_SHIFTS))
        top = 0.75 * np.ptp(points[:, 0])  # above every distance to the two centers
    else:
        # squares of about 1e-320 are subnormal and lose most of their bits;
        # at 2^-512 they straddle the smallest normal
        scale = rng.choice([1e-160, 2.0 ** -512])
        points, top = _lattice(rng, n, dim, levels, dups) * scale, 0.5 * scale
    _check_cloud(points, top, n_cuts, limit)


def test_ulp_tie_clouds_tie_in_the_roots_only():
    # the family above has rows whose squares differ by one ulp while their
    # roots tie, and such rows end tied to both centers
    points = _ulp_ties(np.random.default_rng(5), 2000, 2, 1, 0.0)
    s = [np.sum((points - points[i]) ** 2, axis=1) for i in (0, 1)]
    one_ulp = (s[1] == np.nextafter(s[0], np.inf)) | (s[0] == np.nextafter(s[1], np.inf))
    assert (one_ulp & (np.sqrt(s[0]) == np.sqrt(s[1]))).sum() > 100
    _, counts, owners = _assert_same_run(points, [0.75 * np.ptp(points[:, 0])])
    assert counts == [2] and len(owners[0][1]) > 100


def test_heavy_cluster_cell():
    # one cell of the clump and the far point: the pruning bound L - R is
    # tiny against R and falls inside the clump's spread of r, so the
    # rounding of each r decides between kept and dropped members
    points = _heavy_cluster(np.random.default_rng(3), 2000, 3)
    order, bounds = np.arange(len(points)), np.array([0, len(points)])
    r = np.linalg.norm(points - points.mean(axis=0), axis=1)
    ell = np.linalg.norm(points - points[np.argmax(r)], axis=1).max()
    assert 0 < ell - r.max() < 1e-2 * r.max()
    _assert_same_candidates(points, order, bounds)
    kept = _diameter_candidates(points, order, bounds)[0]
    assert np.argmax(r) in kept and 2 <= len(kept) < len(points)


def test_subnormal_squares():
    # every square of a difference is subnormal, the floor of the bound's range
    points = _lattice(np.random.default_rng(7), 400, 2, 8, 30) * 1e-160
    d2 = np.sum((points[:, None] - points[None]) ** 2, axis=-1)
    assert (d2[d2 > 0] < np.finfo(float).smallest_normal).all()
    _check_cloud(points, 0.5e-160, 4)


@pytest.mark.parametrize("center, h, delta", [
    ((0.0, 0.0, 0.0), 1 / 64, 0.125),  # the covering workload's sphere
    ((0.0, 0.0), 1 / 1024, 0.2),       # the covering workload's disk
])
def test_benchmark_clouds(center, h, delta):
    points = extract_boundary(make_ball(center, 1.0, h)).points
    for pts in (points, np.ascontiguousarray(points)):
        _check_cloud(pts, delta, 2)
