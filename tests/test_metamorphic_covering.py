"""Metamorphic properties of the covering estimator and the partition.

Shifting a domain by whole cells moves every boundary sample by the same
exactly representable vector when the grid origin and spacing are dyadic,
so every difference of samples, and with it every covering number, must
come out bit for bit the same.  So must the partition's cells, radii and
measures.  Its representatives may not: a cell's centroid is rounded, and
the rounding, which moves with the shift, decides between members that are
exactly equally near the true centroid.  Each representative is checked to
be a nearest member in exact integer arithmetic instead.  On a thin strip
the greedy farthest-point order must still be the full-update greedy order,
although every update slab then spans the strip's whole width, and every
point the run does not mark tied must own its KD-tree nearest center.  On
lattice clouds full of duplicate points and exact ties, every output of the
slab-updated run (centers, counts and each owner and tie snapshot) must be
that of a run that updates every point for every center.
"""

import numpy as np
import pytest
from scipy.spatial import cKDTree

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
from gmtlab.hausdorff import _fps_centers, build_partition, estimate_hm_detail  # noqa: E402

from conftest import fps_capped  # noqa: E402
from test_hausdorff import _fps_reference  # noqa: E402

_LEN = st.floats(0.2, 0.6)
_POS = st.floats(-0.3, 0.3)


@st.composite
def small_domains(draw):
    """A small ball, box, annulus or polygon on a dyadic grid with a dyadic origin."""
    kind = draw(st.sampled_from(["ball", "box", "annulus", "polygon"]))
    dim = draw(st.sampled_from([2, 3])) if kind in ("ball", "box") else 2
    h = draw(st.sampled_from([1 / 16, 1 / 32])) if dim == 2 else 1 / 16
    center = [draw(_POS) for _ in range(dim)]
    if kind == "ball":
        dom = make_ball(center, draw(_LEN), h)
    elif kind == "box":
        dom = make_box(center, [draw(_LEN) for _ in range(dim)], h)
    elif kind == "annulus":
        r_outer = draw(_LEN)
        dom = make_annulus(center, r_outer, r_outer * draw(st.floats(0.3, 0.7)), h)
    else:
        verts = [[draw(st.floats(-0.6, 0.6)), draw(st.floats(-0.6, 0.6))] for _ in range(draw(st.integers(3, 5)))]
        try:
            dom = rasterize_polygon(verts, h)
        except InvalidArgumentError:  # zero-area vertex lists
            assume(False)
        assume(dom.mask.sum() >= 4)
    # the origin on the lattice of h: every sample is then a short dyadic number
    return GridDomain(h, np.round(dom.origin / h) * h, dom.mask)


def _exact_nearest(cloud, part):
    """Whether every representative is a member nearest its cell's centroid, exactly.

    Samples are multiples of h/2, so in units of h/2 they are integers; for a
    cell of m members with coordinate sum S, ``|m p - S|^2`` orders the
    members by distance to the centroid in integer arithmetic.
    """
    units = np.rint(cloud.points / (cloud.resolution / 2)).astype(np.int64)
    sizes = np.diff(part.bounds)
    cell = np.repeat(np.arange(len(sizes)), sizes)
    members = units[part.order]
    sums = np.add.reduceat(members, part.bounds[:-1], axis=0)
    key = np.sum((sizes[cell, None] * members - sums[cell]) ** 2, axis=1)
    owner_key = np.empty(len(cloud), dtype=np.int64)
    owner_key[part.order] = key
    return np.array_equal(owner_key[part.x_index], np.minimum.reduceat(key, part.bounds[:-1]))


def _partition_columns(part):
    return [np.asarray(col).tobytes() for col in (part.order, part.bounds, part.rd, part.hm_est)]


@settings(max_examples=12)
@given(dom=small_domains(), cells=st.lists(st.integers(-40, 40), min_size=3, max_size=3),
       k=st.sampled_from([4, 8, 16]))
def test_whole_cell_translation_keeps_every_number(dom, cells, k):
    shift = np.array(cells[: dom.dim], dtype=float) * dom.spacing
    base, moved = extract_boundary(dom), extract_boundary(dom.translated(shift))
    np.testing.assert_array_equal(moved.points, base.points + shift)
    d, delta = dom.dim - 1, k * dom.spacing
    fields = ("value", "method", "n_cells", "fps_skipped")
    got = [tuple(getattr(estimate_hm_detail(c, d, delta), f) for f in fields) for c in (base, moved)]
    assert got[0] == got[1]
    parts = [build_partition(c, d, delta) for c in (base, moved)]
    assert _partition_columns(parts[0]) == _partition_columns(parts[1])
    assert _exact_nearest(base, parts[0]) and _exact_nearest(moved, parts[1])


@settings(max_examples=12)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 400), width=st.sampled_from([0.0, 1e-4, 1e-2]),
       levels=st.sampled_from([8, 64, 1024]))
def test_thin_strip_keeps_the_greedy_order(seed, n, width, levels):
    # coordinates on a coarse lattice, so equal distances (ties) are common
    rng = np.random.default_rng(seed)
    pts = np.stack([rng.integers(0, 3, n) * width, rng.integers(-levels, levels + 1, n) / levels], axis=1)
    scales = [0.5, 0.125, 1 / 32]
    centers, counts, owners = _fps_centers(pts, scales)
    for scale, count, (owner, tied) in zip(scales, counts, owners):
        np.testing.assert_array_equal(centers[:count], _fps_reference(pts, scale))
        # an untied owner is the strictly nearest center, so the tree's answer
        strict = np.setdiff1d(np.arange(n), tied)
        nearest = cKDTree(pts[centers[:count]]).query(pts[strict])[1]
        np.testing.assert_array_equal(owner[strict], nearest)


def _fps_owner_reference(points, thresholds, limit=None):
    """``_fps_centers`` with a full distance, owner and tie update per center."""
    centers = [int(np.lexsort(points.T[::-1])[0])]
    dist = np.linalg.norm(points - points[centers[0]], axis=1)
    owner = np.zeros(len(points), dtype=np.intp)
    tied = np.zeros(len(points), dtype=bool)
    counts, owners = [], []
    while len(counts) < len(thresholds):
        nxt = int(np.argmax(dist))
        if not dist[nxt] > thresholds[len(counts)]:
            counts.append(len(centers))
            owners.append((owner.copy(), np.flatnonzero(tied)))
            continue
        if limit is not None and len(centers) >= limit:
            missing = [None] * (len(thresholds) - len(counts))
            return centers, counts + missing, owners + missing
        new = np.linalg.norm(points - points[nxt], axis=1)
        owner[new < dist] = len(centers)
        tied[new < dist] = False
        tied[new == dist] = True
        dist = np.minimum(dist, new)
        centers.append(nxt)
    return centers, counts, owners


@settings(max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 300), dim=st.sampled_from([2, 3]),
       levels=st.sampled_from([2, 4, 8]), dups=st.integers(0, 40), top=st.sampled_from([2.0, 0.5]),
       n_cuts=st.integers(1, 4), limit=st.one_of(st.none(), st.integers(1, 30)))
@example(seed=0, n=1, dim=2, levels=2, dups=0, top=0.5, n_cuts=2, limit=None)
@example(seed=0, n=1, dim=3, levels=2, dups=1, top=0.5, n_cuts=1, limit=1)
@example(seed=1, n=2, dim=2, levels=2, dups=0, top=0.5, n_cuts=3, limit=None)
@example(seed=2, n=2, dim=3, levels=8, dups=0, top=0.5, n_cuts=4, limit=1)
def test_slab_updates_match_full_updates(seed, n, dim, levels, dups, top, n_cuts, limit):
    # a coarse dyadic lattice, plus repeated rows: exact ties and coincident points
    rng = np.random.default_rng(seed)
    pts = rng.integers(-levels, levels + 1, (n, dim)) / levels
    pts = np.concatenate([pts, pts[rng.integers(0, n, dups)]])
    scales = [top / 2 ** j for j in range(n_cuts)]
    centers, counts, owners = fps_capped(pts, scales, limit)
    ref_centers, ref_counts, ref_owners = _fps_owner_reference(pts, scales, limit=limit)
    assert centers.tolist() == ref_centers and counts == ref_counts
    for cut, ref in zip(owners, ref_owners):
        if ref is None:
            assert cut is None
        else:
            np.testing.assert_array_equal(cut[0], ref[0])
            np.testing.assert_array_equal(cut[1], ref[1])
