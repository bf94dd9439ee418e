"""Face tables and nearest-neighbour gaps of face clouds, read off the face lattice.

``_cloud_nn`` builds a face cloud's gaps on first read from its face table
and the domain's mask, instead of a KD-tree over the cloud.  The tree's k=2
query is the oracle: every gap must equal its answer bit for bit, on random
masks with non-dyadic spacings and origins, isolated cells and cells that
meet only along an edge or at a corner, and on the benchmark's clouds.  The
face table that ``extract_boundary`` builds must equal the one derived from
rolled copies of the mask.
"""

import gc
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.spatial import cKDTree

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from gmtlab.domains import GridDomain, _face_gaps, extract_boundary, make_ball  # noqa: E402
from gmtlab.hausdorff import _cloud_nn  # noqa: E402

_SPACINGS = [1 / 16, 0.1, 1 / 3, 0.07]
_ORIGINS = [0.0, 0.37, -1.3, 12.345]


def _tree_gaps(cloud):
    return cKDTree(cloud.points).query(cloud.points, k=2)[0][:, 1]


def _ref_face_table(dom):
    """Per (axis, sign), in cloud order: the rows of those faces and the flat
    indices of their cells, from rolled copies of the mask."""
    table, start = {}, 0
    for axis, sign in itertools.product(range(dom.dim), (1, -1)):
        flat = np.flatnonzero(dom.mask & ~np.roll(dom.mask, -sign, axis=axis))
        table[axis, sign] = (np.arange(start, start + len(flat)), flat)
        start += len(flat)
    return table


def _check_face_table(dom):
    cloud = extract_boundary(dom)
    assert cloud.faces.shape == dom.shape and cloud.faces.mask is dom.mask
    ref = _ref_face_table(dom)
    assert list(cloud.faces.blocks) == list(ref)
    for key, arrays in cloud.faces.blocks.items():
        for got, want in zip(arrays, ref[key]):
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert not got.flags.writeable
    assert sum(len(rows) for rows, _ in ref.values()) == len(cloud)


def _lattice_gaps(cloud):
    gaps = _cloud_nn(cloud)
    assert cloud.nn_gaps is gaps and _cloud_nn(cloud) is gaps and not gaps.flags.writeable
    return gaps


@st.composite
def face_domains(draw):
    """A random mask in 2D or 3D with the one-cell false margin.

    Low densities leave isolated cells; the checkerboard keeps cells that
    meet only along an edge (3D) or at a corner (2D), and stripes leave
    layers one exterior cell apart.
    """
    dim = draw(st.sampled_from([2, 3]))
    sides = [draw(st.integers(3, 14 if dim == 2 else 8)) for _ in range(dim)]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    inner = rng.random([s - 2 for s in sides]) < draw(st.floats(0.05, 0.95))
    index = np.indices(inner.shape)
    pattern = draw(st.sampled_from(["random", "checkerboard", "stripes"]))
    if pattern == "checkerboard":
        inner &= index.sum(axis=0) % 2 == 0
    elif pattern == "stripes":
        inner |= index[draw(st.integers(0, dim - 1))] % 2 == 0
    inner[tuple(rng.integers(0, s - 2) for s in sides)] = True
    mask = np.zeros(sides, dtype=bool)
    mask[(slice(1, -1),) * dim] = inner
    origin = [draw(st.sampled_from(_ORIGINS)) for _ in range(dim)]
    return GridDomain(draw(st.sampled_from(_SPACINGS)), origin, mask)


@settings(max_examples=60)
@given(dom=face_domains())
def test_gaps_match_the_tree(dom):
    cloud = extract_boundary(dom)
    assert np.array_equal(_lattice_gaps(cloud), _tree_gaps(cloud))
    _check_face_table(dom)


@pytest.mark.parametrize("cells", [
    [(2, 2)],                        # one isolated square
    [(1, 1), (2, 2)],                # squares meeting at a corner
    [(2, 2, 2)],                     # one isolated cube
    [(1, 1, 2), (2, 2, 2)],          # cubes meeting along an edge
    [(1, 1, 1), (2, 2, 2), (3, 1, 3)],  # cubes meeting at a corner, and apart
    [(i, j) for i in (1, 3) for j in (1, 2, 3)],  # plates one exterior cell apart
    [(i, j, k) for i in (1, 3) for j in (1, 2, 3) for k in (1, 2)],
])
def test_isolated_and_edge_contacts(cells):
    mask = np.zeros((5,) * len(cells[0]), dtype=bool)
    for c in cells:
        mask[c] = True
    cloud = extract_boundary(GridDomain(0.1, [0.37] * mask.ndim, mask))
    assert np.array_equal(_lattice_gaps(cloud), _tree_gaps(cloud))


@pytest.mark.parametrize("center, h", [
    ((0.0, 0.0, 0.0), 1 / 64),   # the covering workload's sphere
    ((0.0, 0.0), 1 / 1024),      # the covering workload's disk
    ((0.0, 0.0), 1 / 512),       # the proof workload's disk
    ((0.37, -0.11), 1 / 30),
])
def test_benchmark_clouds(center, h):
    dom = make_ball(center, 1.0, h)
    cloud = extract_boundary(dom)
    assert np.array_equal(_lattice_gaps(cloud), _tree_gaps(cloud))
    _check_face_table(dom)


def test_cloud_does_not_keep_its_domain_alive():
    # the domain caches its cloud; a cloud that held the domain would make a
    # cycle, freed only by the cyclic collector
    gc.disable()
    try:
        dom = make_ball((0.0, 0.0), 1.0, 1 / 64)
        cloud = extract_boundary(dom)
        _cloud_nn(cloud)
        alive = weakref.ref(dom)
        del dom
        assert alive() is None
    finally:
        gc.enable()


def test_gaps_are_built_one_face_block_at_a_time():
    # temporaries of one (axis, sign) block, not of the whole cloud: on the
    # covering workload's sphere the peak stays under two copies of the points
    cloud = extract_boundary(make_ball((0.0, 0.0, 0.0), 1.0, 1 / 64))
    tracemalloc.start()
    try:
        _face_gaps(cloud)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * cloud.points.nbytes
