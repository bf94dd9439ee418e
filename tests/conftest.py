"""Shared fixtures: synthetic boundary clouds, standard test domains and the
reference face table of a domain (from rolled copies of its mask).

Every property test runs the same fixed examples on every run: one
``hypothesis`` profile, loaded here, derandomizes them, keeps no example
database and sets no deadline.  Tests set only ``max_examples`` (and health
checks) themselves.
"""

import itertools
import math

import numpy as np
import pytest

from gmtlab.domains import BoundaryCloud, make_ball, make_box, rasterize_polygon

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile("gmtlab", derandomize=True, database=None, deadline=None)
    settings.load_profile("gmtlab")


def circle_cloud(r=1.0, spacing=1 / 512, center=(0.0, 0.0)):
    """Points exactly on a circle with exact arc-length weights."""
    n = int(round(2 * math.pi * r / spacing))
    t = (np.arange(n) + 0.5) * 2 * math.pi / n
    pts = np.stack([center[0] + r * np.cos(t), center[1] + r * np.sin(t)], axis=1)
    return BoundaryCloud(dim=2, resolution=spacing, points=pts,
                         weights=np.full(n, 2 * math.pi * r / n))


def ellipse_cloud(a=1.3, b=0.7, spacing=1 / 512):
    """Arc-length-uniform samples of an ellipse (numeric arc-length oracle)."""
    tt = np.linspace(0, 2 * math.pi, 200001)
    xy = np.stack([a * np.cos(tt), b * np.sin(tt)], axis=1)
    seg = np.linalg.norm(np.diff(xy, axis=0), axis=1)
    arc = np.concatenate([[0.0], np.cumsum(seg)])
    total = arc[-1]
    n = int(round(total / spacing))
    targets = (np.arange(n) + 0.5) * total / n
    ts = np.interp(targets, arc, tt)
    pts = np.stack([a * np.cos(ts), b * np.sin(ts)], axis=1)
    return BoundaryCloud(dim=2, resolution=spacing, points=pts,
                         weights=np.full(n, total / n))


def segment_cloud(length=1.0, spacing=1 / 512):
    """Uniform samples of [0, length] x {0} with exact length weights."""
    n = int(round(length / spacing))
    x = (np.arange(n) + 0.5) * length / n
    pts = np.stack([x, np.zeros(n)], axis=1)
    return BoundaryCloud(dim=2, resolution=spacing, points=pts,
                         weights=np.full(n, length / n))


def ref_face_table(domain):
    """Per (axis, sign), in cloud order: the rows of those faces and the flat
    indices of their cells (integer arrays), from rolled copies of the mask."""
    table, start = {}, 0
    for axis, sign in itertools.product(range(domain.dim), (1, -1)):
        flat = np.flatnonzero(domain.mask & ~np.roll(domain.mask, -sign, axis=axis))
        table[axis, sign] = (np.arange(start, start + len(flat)), flat)
        start += len(flat)
    return table


def assert_face_table(cloud, domain):
    """``cloud.faces.blocks`` against :func:`ref_face_table`: each block's rows
    a slice over the reference's rows, its cells bit for bit and read-only."""
    ref = ref_face_table(domain)
    assert list(cloud.faces.blocks) == list(ref)
    for key, (rows, cells) in cloud.faces.blocks.items():
        ref_rows, ref_cells = ref[key]
        assert isinstance(rows, slice) and np.array_equal(np.arange(rows.start, rows.stop), ref_rows)
        assert cells.dtype == ref_cells.dtype and np.array_equal(cells, ref_cells)
        assert not cells.flags.writeable
    assert sum(len(rows) for rows, _ in ref.values()) == len(cloud)


def fps_capped(points, thresholds, limit=None):
    """``hausdorff._fps_centers`` run with ``_MAX_FPS_CENTERS`` set to ``limit``
    (None keeps the module's own cap, above every test cloud's size)."""
    from gmtlab import hausdorff

    with pytest.MonkeyPatch.context() as mp:
        if limit is not None:
            mp.setattr(hausdorff, "_MAX_FPS_CENTERS", limit)
        return hausdorff._fps_centers(points, thresholds)


def shoelace_area(vertices):
    v = np.asarray(vertices, float)
    x, y = v.T
    return 0.5 * abs(float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)))


@pytest.fixture(scope="session")
def disk_128():
    return make_ball((0.0, 0.0), 1.0, 1 / 128)


@pytest.fixture(scope="session")
def disk_512():
    return make_ball((0.0, 0.0), 1.0, 1 / 512)


@pytest.fixture(scope="session")
def square_128():
    return make_box((0.0, 0.0), (1.0, 1.0), 1 / 128)


@pytest.fixture(scope="session")
def square_512():
    return make_box((0.0, 0.0), (1.0, 1.0), 1 / 512)


@pytest.fixture(scope="session")
def lshape_128():
    return rasterize_polygon([(0, 0), (1, 0), (1, 0.5), (0.5, 0.5), (0.5, 1), (0, 1)], 1 / 128)
