from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from poissonridge.radon import (Sinogram, TransformConfig, _angle_array,
                                _angle_orbits, _area_taps, _column_length,
                                _drt_single_quadrant, _oriented_views,
                                _rotation_radius, drt_gdb, drt_rotation,
                                fbp_invert, propagate_intensity)


def _trapezoid_cdf(u, a, b):
    """CDF of box(a) convolved with box(b); unit mass, a >= b > 0."""
    c = (a + b) / 2.0
    d = (a - b) / 2.0
    u = np.clip(u, -c, c)
    out = np.empty_like(u)
    left = u < -d
    right = u > d
    mid = ~(left | right)
    out[left] = (u[left] + c) ** 2 / (2 * a * b)
    out[mid] = 0.5 + u[mid] / a
    out[right] = 1.0 - (c - u[right]) ** 2 / (2 * a * b)
    return out


# --- recursive line family ------------------------------------------------
# The digital lines D_n(h, s), built point by point: the reference
# definition that drt_gdb's recursion is checked against.

@dataclass(frozen=True)
class DiscreteLine:
    """A discrete line D_n(h, s): n points, one per column."""

    n: int
    intercept: int
    slope: int
    points: tuple


_offset_cache = {}


def _gdb_offsets(n, s):
    """Row offsets (relative to the intercept) of D_n(0, s), memoized."""
    key = (n, s)
    cached = _offset_cache.get(key)
    if cached is not None:
        return cached
    if n == 1:
        out = np.zeros(1, dtype=np.int64)
    else:
        half = _gdb_offsets(n // 2, s // 2)
        # joining shift: s//2 for even target slope, s//2 + 1 for odd
        out = np.concatenate([half, half + (s - s // 2)])
    _offset_cache[key] = out
    return out


def _check_pow2(n):
    if n < 1 or (n & (n - 1)) != 0:
        raise ValueError(f"grid edge must be a power of two, got {n}")


def gdb_lines(n, h, s):
    """The discrete line D_n(h, s) joining (0, h) to (n-1, h+s).

    n is a power of two and s in 0..n-1; h may place the line partly or
    fully outside the grid, where sums over it treat points as 0.
    """
    _check_pow2(n)
    if not 0 <= s <= n - 1:
        raise ValueError(f"slope must be in 0..{n - 1}, got {s}")
    offs = _gdb_offsets(n, s)
    pts = tuple((i, int(h + offs[i])) for i in range(n))
    return DiscreteLine(n=n, intercept=int(h), slope=int(s), points=pts)


def line_offsets(n, s):
    return np.array([p[1] for p in gdb_lines(n, 0, s).points])


def test_line_offsets_frozen_small_cases():
    # hand recursion: offsets(1,0)=[0]; offsets(n,s) concatenates
    # offsets(n/2, s//2) with itself shifted by s - s//2
    assert line_offsets(1, 0).tolist() == [0]
    assert line_offsets(2, 0).tolist() == [0, 0]
    assert line_offsets(2, 1).tolist() == [0, 1]
    assert line_offsets(4, 0).tolist() == [0, 0, 0, 0]
    assert line_offsets(4, 1).tolist() == [0, 0, 1, 1]
    assert line_offsets(4, 2).tolist() == [0, 1, 1, 2]
    assert line_offsets(4, 3).tolist() == [0, 1, 2, 3]


def test_line_endpoints_and_cardinality():
    for n in (2, 4, 8, 16, 64):
        for s in range(n):
            line = gdb_lines(n, 5, s)
            assert len(line.points) == n
            # one point per column, ordered
            assert [p[0] for p in line.points] == list(range(n))
            assert line.points[0] == (0, 5)
            assert line.points[-1] == (n - 1, 5 + s)


def test_line_deviation_bound():
    # vertical deviation from the straight segment <= log2(n)/6
    for n in (2, 4, 8, 16, 32, 64):
        bound = np.log2(n) / 6 + 1e-9
        for s in range(n):
            offs = line_offsets(n, s).astype(float)
            ideal = s * np.arange(n) / (n - 1)
            assert np.abs(offs - ideal).max() <= bound


def test_line_validation():
    with pytest.raises(ValueError):
        gdb_lines(12, 0, 0)  # not a power of two
    with pytest.raises(ValueError):
        gdb_lines(8, 0, 8)  # slope out of range
    with pytest.raises(ValueError):
        gdb_lines(8, 0, -1)


# --- gdb transform ---------------------------------------------------------

def brute_quadrant(view, n):
    out = np.zeros((2 * n - 1, n))
    for s in range(n):
        offs = line_offsets(n, s)
        for hidx in range(2 * n - 1):
            h = hidx - (n - 1)
            total = 0.0
            for i in range(n):
                r = h + offs[i]
                if 0 <= r < n:
                    total += view[r, i]
            out[hidx, s] = total
    return out


def test_drt_gdb_matches_brute_force_all_quadrants():
    rng = np.random.default_rng(0)
    img = rng.uniform(0, 4, size=(8, 8))
    sino = drt_gdb(img)
    n = sino.gdb_size
    views = (img, img.T, np.flipud(img), np.fliplr(img).T)
    for q, view in enumerate(views):
        block = sino.data[:, q * n:(q + 1) * n]
        assert np.allclose(block, brute_quadrant(view, n), atol=1e-12)


def per_slope_quadrant(a):
    """Reference recursion: each merged slope added on its own."""
    n = a.shape[0]
    batch = a.shape[2:]
    width_h = 3 * n - 2
    z = np.zeros((n, 1, width_h) + batch)
    z[:, 0, n - 1:2 * n - 1] = np.swapaxes(a, 0, 1)
    width = 1
    while width < n:
        left, right = z[0::2], z[1::2]
        z = np.zeros((left.shape[0], 2 * width, width_h) + batch)
        for snew in range(2 * width):
            half = snew // 2
            top = width_h - (snew - half)
            z[:, snew, :top] = left[:, half, :top] + right[:, half, snew - half:]
            # beyond that the right half starts above the grid
            z[:, snew, top:] = left[:, half, top:]
        width *= 2
    return z[0, :, :2 * n - 1]


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32, 64])
@pytest.mark.parametrize("batch", [(), (3,), (2, 2)])
def test_sheared_recursion_matches_per_slope_loop(n, batch):
    a = np.random.default_rng(n + len(batch)).normal(0.0, 2.0, size=(n, n) + batch)
    assert np.array_equal(_drt_single_quadrant(a), per_slope_quadrant(a))


def test_drt_gdb_conserves_mass_per_line_family():
    rng = np.random.default_rng(1)
    img = rng.uniform(0, 2, size=(16, 16))
    sino = drt_gdb(img)
    # every (quadrant, slope) family partitions the grid
    sums = sino.data.sum(axis=0)
    assert np.allclose(sums, img.sum(), atol=1e-9)


def test_drt_gdb_pads_non_square_and_non_pow2():
    img = np.ones((5, 7))
    sino = drt_gdb(img)
    assert sino.gdb_size == 8
    assert sino.data.shape == (15, 32)
    assert sino.image_shape == (5, 7)
    assert np.allclose(sino.data.sum(axis=0), img.sum())


def test_drt_gdb_delta_image_hits_one_line_per_family():
    img = np.zeros((8, 8))
    img[3, 5] = 1.0
    data = drt_gdb(img).data
    # a point mass lies on exactly one line of each (quadrant, slope) family
    assert np.allclose(data.sum(axis=0), 1.0)
    assert set(np.unique(data)) == {0.0, 1.0}


@pytest.mark.parametrize("shape", [(1, 1), (5, 3), (16, 16), (13, 32)])
def test_drt_gdb_stack_is_per_image_drt_gdb(shape):
    # a trailing batch axis runs the same recursion on every image:
    # bit-identical, including non-integer and padded inputs
    rng = np.random.default_rng(sum(shape))
    stack = rng.uniform(0.0, 3.0, size=shape + (5,))
    data = drt_gdb(stack).data
    n = drt_gdb(stack[..., 0]).gdb_size
    assert data.shape == (2 * n - 1, 4 * n, 5)
    for k in range(5):
        assert np.array_equal(data[..., k], drt_gdb(stack[..., k]).data)
    assert np.array_equal(drt_gdb(stack[..., 2]).data, data[..., 2])


def test_drt_gdb_rejects_non_2d_images():
    with pytest.raises(ValueError, match="2-D"):
        drt_gdb(np.ones(4))


@pytest.mark.parametrize("shape", [(1, 1), (5, 7), (13, 32), (64, 64)])
@pytest.mark.parametrize("stack", [(), (3,)])
def test_derived_geometry_matches_the_stored_formulas(shape, stack):
    # offset_min and gdb_size used to be stored; the values derived from
    # the row count must equal what each projector used to store
    img = np.ones(shape + stack)
    n = 1
    while n < max(shape):
        n *= 2
    gdb = drt_gdb(img)
    assert (gdb.offset_min, gdb.gdb_size) == (-(n - 1), n)
    radius = int(np.ceil(np.hypot((shape[0] - 1) / 2, (shape[1] - 1) / 2))) + 2
    rot = drt_rotation(img, angles=5, interp="linear")
    assert (rot.offset_min, rot.gdb_size) == (-radius, 0)
    assert gdb.image_shape == rot.image_shape == shape
    # what entry points check a wavelet's depth against before projecting
    assert _column_length(img.shape, TransformConfig("gdb")) == gdb.data.shape[0]
    assert _column_length(img.shape, TransformConfig()) == rot.data.shape[0]


def test_sinogram_offsets_and_gdb_column():
    img = np.ones((4, 4))
    sino = drt_gdb(img)
    offsets = sino.offset_min + np.arange(sino.data.shape[0])
    assert offsets.tolist() == list(range(-3, 4))
    # (quadrant, slope) is column (q - 1) * n + s; quadrant 2 sums X_{j,i}
    n = sino.gdb_size
    col = sino.data[:, (2 - 1) * n + 1]
    assert np.allclose(col, sino.data[:, 4 + 1])
    assert np.array_equal(col, brute_quadrant(img.T, n)[:, 1])


# --- rotation transform ----------------------------------------------------

def test_rotation_nearest_matches_direct_binning():
    rng = np.random.default_rng(2)
    img = rng.uniform(0, 3, size=(6, 7))
    sino = drt_rotation(img, angles=5, interp="nearest")
    h, w = img.shape
    cy, cx = (h - 1) / 2, (w - 1) / 2
    for k, t in enumerate(sino.angles):
        expected = np.zeros(sino.data.shape[0])
        for j in range(h):
            for i in range(w):
                r = (i - cx) * np.cos(t) + (j - cy) * np.sin(t)
                expected[int(np.rint(r)) - sino.offset_min] += img[j, i]
        assert np.allclose(sino.data[:, k], expected, atol=1e-12)


def test_rotation_conserves_mass_every_angle_every_mode():
    rng = np.random.default_rng(3)
    img = rng.uniform(0, 2, size=(16, 16))
    for interp in ("nearest", "linear", "area"):
        sino = drt_rotation(img, angles=24, interp=interp)
        assert np.allclose(sino.data.sum(axis=0), img.sum(), atol=1e-9)


def test_rotation_axis_aligned_area_equals_column_sums():
    # odd edge puts pixel centers on integer offsets at theta = 0
    rng = np.random.default_rng(4)
    img = rng.uniform(0, 1, size=(9, 9))
    sino = drt_rotation(img, angles=np.array([0.0]), interp="area")
    col_sums = img.sum(axis=0)
    center = -sino.offset_min
    got = sino.data[center - 4:center + 5, 0]
    assert np.allclose(got, col_sums, atol=1e-12)


def test_rotation_linear_split_single_pixel():
    img = np.zeros((4, 4))
    img[1, 2] = 1.0
    t = 0.3
    sino = drt_rotation(img, angles=np.array([t]), interp="linear")
    r = (2 - 1.5) * np.cos(t) + (1 - 1.5) * np.sin(t)
    base = int(np.floor(r))
    frac = r - base
    col = sino.data[:, 0]
    assert col[base - sino.offset_min] == pytest.approx(1 - frac)
    assert col[base + 1 - sino.offset_min] == pytest.approx(frac)
    assert np.count_nonzero(col) == 2


def test_rotation_weights_never_negative():
    img = np.ones((8, 8))
    for interp in ("nearest", "linear", "area"):
        sino = drt_rotation(img, angles=40, interp=interp)
        assert sino.data.min() >= -1e-15


def per_tap_rotation(img, thetas, interp):
    """Reference projector: one np.add.at per tap, every tap evaluated.

    Area mode integrates the footprint over five bins around floor(r)
    with two CDF calls each; at axis-aligned angles it clips the overlap
    of a unit box with three bins directly.
    """
    h, w = img.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    radius = int(np.ceil(np.hypot(cy, cx))) + 2
    jj, ii = np.mgrid[0:h, 0:w]
    x = (ii.ravel() - cx).astype(float)
    y = (jj.ravel() - cy).astype(float)
    v = img.ravel()
    out = np.zeros((2 * radius + 1, thetas.size))
    for k, t in enumerate(thetas):
        r = x * np.cos(t) + y * np.sin(t)
        col = out[:, k]
        if interp == "nearest":
            np.add.at(col, np.rint(r).astype(np.int64) + radius, v)
            continue
        base = np.floor(r)
        if interp == "linear":
            frac = r - base
            i0 = base.astype(np.int64) + radius
            np.add.at(col, i0, v * (1.0 - frac))
            np.add.at(col, i0 + 1, v * frac)
            continue
        ct, st = abs(np.cos(t)), abs(np.sin(t))
        a, b = max(ct, st), min(ct, st)
        base = base.astype(np.int64)
        if b < 1e-12:
            for step in (-1, 0, 1):
                lo = np.maximum(base + step - 0.5, r - 0.5)
                hi = np.minimum(base + step + 0.5, r + 0.5)
                np.add.at(col, base + step + radius,
                          v * np.clip(hi - lo, 0.0, None))
        else:
            for step in (-2, -1, 0, 1, 2):
                upper = _trapezoid_cdf(base + step + 0.5 - r, a, b)
                lower = _trapezoid_cdf(base + step - 0.5 - r, a, b)
                np.add.at(col, base + step + radius, v * (upper - lower))
    return out


@pytest.mark.parametrize("interp", ["nearest", "linear", "area"])
@pytest.mark.parametrize("shape", [(9, 9), (37, 53), (64, 64)])
@pytest.mark.parametrize("angles", [
    7, 180, np.array([0.0, np.pi / 4, np.pi / 2, 0.3, 3 * np.pi / 4, 2.0])])
def test_rotation_matches_per_tap_reference(interp, shape, angles):
    img = np.random.default_rng(sum(shape)).uniform(0, 5, size=shape)
    sino = drt_rotation(img, angles=angles, interp=interp)
    expected = per_tap_rotation(img, sino.angles, interp)
    assert sino.data.shape == expected.shape
    assert np.abs(sino.data - expected).max() <= 1e-12 * np.abs(expected).max()
    assert sino.data.min() >= 0.0


# just above the 1e-12 cut below which area falls back to linear taps
NEAR_AXIS = 1.0000001e-12
ONE_MINUS_ULP = np.nextafter(1.0, 0.0)


@settings(max_examples=300, deadline=None)
@given(t=st.one_of(st.floats(0.0, np.pi, exclude_max=True),
                   st.sampled_from([np.pi / 4, 3 * np.pi / 4, NEAR_AXIS,
                                    np.pi / 2 - NEAR_AXIS,
                                    np.pi / 2 + NEAR_AXIS,
                                    np.pi - NEAR_AXIS])),
       fracs=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=40),
       whole=st.integers(-300, 300))
@example(t=np.pi / 4, fracs=[0.5, 0.2071, 0.7929], whole=0)
@example(t=NEAR_AXIS, fracs=[0.5, 1e-13, ONE_MINUS_ULP - 1e-13], whole=-1)
def test_area_taps_match_trapezoid_cdf(t, fracs, whole):
    # the closed-form edge CDFs equal the piecewise reference at the
    # inner edges floor(r) + [-1/2, 1/2, 3/2] - r, down to b just above
    # the axis-aligned cut, and every tap is non-negative exactly
    a = max(abs(np.cos(t)), abs(np.sin(t)))
    b = min(abs(np.cos(t)), abs(np.sin(t)))
    assume(b >= 1e-12)
    r = whole + np.array([0.0, ONE_MINUS_ULP] + fracs)
    base = np.floor(r)
    frac = r - base
    taps = np.empty((4, r.size))
    _area_taps(frac, a, b, taps, np.empty(r.size), np.empty(r.size))
    ref = _trapezoid_cdf(base + np.array([[-0.5], [0.5], [1.5]]) - r, a, b)
    closed = np.array([taps[0], taps[0] + taps[1], 1.0 - taps[3]])
    assert np.abs(closed - ref).max() <= 1e-15
    assert taps.min() >= 0.0
    assert np.abs(taps.sum(axis=0) - 1.0).max() <= 1e-15


@pytest.mark.parametrize("interp", ["nearest", "linear", "area"])
@pytest.mark.parametrize("shape", [(7, 12), (16, 9), (5, 5)])
@pytest.mark.parametrize("n_images", [1, 3])
def test_drt_rotation_stack_is_per_image_drt_rotation(interp, shape, n_images):
    # every batch entry is bit-identical to projecting it alone,
    # axis-aligned and diagonal angles included
    rng = np.random.default_rng(sum(shape) + n_images)
    stack = rng.uniform(0.0, 4.0, size=shape + (n_images,))
    thetas = np.array([0.0, 0.2, np.pi / 4, np.pi / 2, 2.5])
    data = drt_rotation(stack, angles=thetas, interp=interp).data
    for k in range(n_images):
        sino = drt_rotation(stack[..., k], angles=thetas, interp=interp)
        assert data.shape == sino.data.shape + (n_images,)
        assert np.array_equal(data[..., k], sino.data)
    assert np.array_equal(
        drt_rotation(stack[..., 0], angles=thetas, interp=interp).data,
        data[..., 0])


def one_bincount_per_orbit(stack, angles, interp):
    """Reference deposit: every view of an orbit in one np.bincount.

    stack[row, col, entry]; returns data[offset, angle, entry].
    """
    h, w, n_img = stack.shape
    npix = h * w
    thetas = _angle_array(angles)
    orbits = _angle_orbits(thetas, h, w, fold=interp != "nearest")
    n_views = max(len(cols) for _, cols in orbits)
    vals = np.concatenate([view.reshape(npix, n_img).T
                           for view in _oriented_views(stack, n_views)])
    radius = _rotation_radius(h, w)
    nr = 2 * radius + 1
    ys = np.arange(h) - (h - 1) / 2.0
    xs = np.arange(w) - (w - 1) / 2.0
    out = np.empty((nr, thetas.size, n_img))
    for t, cols in orbits:
        ct, st = np.cos(t), np.sin(t)
        r = np.add.outer(ys * st, xs * ct).reshape(-1)
        if interp == "nearest":
            base, taps, lead = np.rint(r), np.ones((1, npix)), 0
        else:
            base = np.floor(r)
            frac = r - base
            a, b = max(abs(ct), abs(st)), min(abs(ct), abs(st))
            if interp == "linear" or b < 1e-12:
                taps, lead = np.array([1.0 - frac, frac]), 0
            else:
                taps, lead = np.empty((4, npix)), -1
                _area_taps(frac, a, b, taps, np.empty(npix), np.empty(npix))
        # entry v * n_img + e of vals is stack entry e seen through view v
        n_entries = len(cols) * n_img
        bins = (base.astype(np.intp) + radius + lead
                + np.arange(len(taps))[:, None]
                + (np.arange(n_entries) * nr)[:, None, None])
        weights = vals[:n_entries, None, :] * taps
        dep = np.bincount(bins.reshape(-1), weights.reshape(-1),
                          minlength=n_entries * nr)
        out[:, list(cols)] = np.moveaxis(dep.reshape(len(cols), n_img, nr),
                                         -1, 0)
    return out


@pytest.mark.parametrize("interp", ["nearest", "linear", "area"])
@pytest.mark.parametrize("shape, angles", [
    ((16, 16), 180), ((9, 9), 8),
    ((7, 12), 12), ((9, 9), np.array([0.0, 0.3, np.pi / 2, 2.0]))],
    ids=["folded-180", "folded-8", "rectangle", "explicit"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_per_view_deposit_matches_one_bincount_per_orbit(interp, shape,
                                                         angles, k):
    # each view deposits with its own np.bincount, adding every bin's
    # terms in the order the one shared bincount did: bit-identical,
    # folded or not
    stack = np.random.default_rng(sum(shape) + k).uniform(0.0, 4.0,
                                                         size=shape + (k,))
    data = drt_rotation(stack, angles=angles, interp=interp).data
    assert np.array_equal(data, one_bincount_per_orbit(stack, angles, interp))


# --- dihedral angle folding ------------------------------------------------

# the angle view m of an orbit projects at, given the orbit's base angle t
VIEW_ANGLES = (lambda t: t, lambda t: t + np.pi / 2, lambda t: np.pi - t,
               lambda t: np.pi / 2 - t)


@pytest.mark.parametrize("n", [4, 8, 12, 180])
@pytest.mark.parametrize("size", [8, 9])
def test_angle_orbits_cover_every_column_once(n, size):
    thetas = np.pi * np.arange(n) / n
    orbits = _angle_orbits(thetas, size, size)
    cols = [c for _, members in orbits for c in members]
    assert sorted(cols) == list(range(n))
    assert len(orbits) == n // 4 + 1
    assert sorted(len(members) for _, members in orbits) == \
        [2, 2] + [4] * (n // 4 - 1)
    for t, members in orbits:
        for view, col in enumerate(members):
            assert VIEW_ANGLES[view](t) == pytest.approx(thetas[col], abs=1e-12)


@pytest.mark.parametrize("thetas, shape", [
    (np.pi * np.arange(7) / 7, (8, 8)),
    (np.pi * np.arange(90) / 90, (8, 8)),
    (np.array([0.0, np.pi / 4, np.pi / 2, 2.0]), (8, 8)),
    (np.array([0.0, 0.3, 2.0, 2.5]), (9, 9)),
    (np.pi * np.arange(8) / 8 + 1e-15, (8, 8)),
    (np.pi * np.arange(8) / 8, (8, 9)),
    (np.pi * np.arange(180) / 180, (9, 8)),
])
def test_angle_orbits_fall_back_to_one_angle(thetas, shape):
    # other counts, non-uniform or perturbed arrays and rectangles run
    # the same loop with one angle per orbit, in column order
    orbits = _angle_orbits(thetas, *shape)
    assert [members for _, members in orbits] == [(k,) for k in range(thetas.size)]
    assert [t for t, _ in orbits] == list(thetas)


def test_angle_orbits_fold_off():
    thetas = np.pi * np.arange(8) / 8
    orbits = _angle_orbits(thetas, 8, 8, fold=False)
    assert [members for _, members in orbits] == [(k,) for k in range(8)]


@pytest.mark.parametrize("interp", ["linear", "area"])
@pytest.mark.parametrize("size", [8, 9, 64])
@pytest.mark.parametrize("n", [4, 8, 180])
def test_folded_rotation_matches_per_tap_reference(interp, size, n):
    img = np.random.default_rng(size + n).uniform(0, 5, size=(size, size))
    sino = drt_rotation(img, angles=n, interp=interp)
    expected = per_tap_rotation(img, sino.angles, interp)
    assert np.abs(sino.data - expected).max() <= 1e-12 * np.abs(expected).max()
    assert sino.data.min() >= 0.0


@pytest.mark.parametrize("interp", ["nearest", "linear", "area"])
@pytest.mark.parametrize("size, n", [(9, 8), (16, 180)])
def test_folded_stack_is_per_image_drt_rotation(interp, size, n):
    stack = np.random.default_rng(size).uniform(0.0, 4.0, size=(size, size, 3))
    data = drt_rotation(stack, angles=n, interp=interp).data
    for k in range(3):
        alone = drt_rotation(stack[..., k], angles=n, interp=interp).data
        assert np.array_equal(data[..., k], alone)


@pytest.mark.parametrize("size", [9, 64])
def test_nearest_is_not_folded(size):
    # np.rint breaks exact half-integer ties differently on a folded
    # geometry, which would move whole counts between bins (at 90 degrees
    # on even grids, 60 and 120 on odd ones); nearest keeps the per-angle
    # projection bit for bit
    img = np.random.default_rng(size).poisson(3.0, size=(size, size)).astype(float)
    sino = drt_rotation(img, angles=180, interp="nearest")
    for k, t in enumerate(sino.angles):
        alone = drt_rotation(img, angles=np.array([t]), interp="nearest")
        assert np.array_equal(sino.data[:, k], alone.data[:, 0])


def per_angle_fbp(sino):
    """Reference backprojection: np.interp of each filtered column."""
    nr, nth = sino.data.shape
    npad = int(2 ** np.ceil(np.log2(2 * nr)))
    f = np.zeros(npad)
    f[0] = 0.25
    odd = np.arange(1, npad // 2, 2)
    f[odd] = f[-odd] = -1.0 / (np.pi * odd) ** 2
    ramp = 2.0 * np.real(np.fft.fft(f))
    padded = np.zeros((npad, nth))
    padded[:nr] = sino.data
    filtered = np.real(
        np.fft.ifft(np.fft.fft(padded, axis=0) * ramp[:, None], axis=0))[:nr]
    h, w = sino.image_shape
    jj, ii = np.mgrid[0:h, 0:w]
    xg, yg = ii - (w - 1) / 2.0, jj - (h - 1) / 2.0
    offsets = (sino.offset_min + np.arange(nr)).astype(float)
    rec = np.zeros((h, w))
    for k, t in enumerate(sino.angles):
        r = xg * np.cos(t) + yg * np.sin(t)
        rec += np.interp(r, offsets, filtered[:, k],
                         left=0.0, right=0.0)
    return rec * np.pi / (2 * nth)


@pytest.mark.parametrize("shape", [(8, 8), (9, 9), (64, 64), (37, 53), (8, 9)])
@pytest.mark.parametrize("angles", [
    4, 8, 180, 7, np.array([0.0, 0.3, np.pi / 2, 2.0, 3.0])])
def test_fbp_matches_per_angle_interp(shape, angles):
    img = np.random.default_rng(sum(shape)).uniform(0, 5, size=shape)
    sino = drt_rotation(img, angles=angles, interp="area")
    rec, expected = fbp_invert(sino), per_angle_fbp(sino)
    assert rec.shape == shape
    assert np.abs(rec - expected).max() <= 1e-12 * np.abs(expected).max()


def test_fbp_rejects_offsets_short_of_the_diagonal():
    sino = drt_rotation(np.ones((8, 8)), angles=8, interp="area")
    sino.image_shape = (32, 32)
    with pytest.raises(ValueError, match="diagonal"):
        fbp_invert(sino)


def test_rotation_angle_validation():
    with pytest.raises(ValueError):
        drt_rotation(np.ones((4, 4)), angles=0)
    with pytest.raises(ValueError):
        drt_rotation(np.ones((4, 4)), angles=5, interp="cubic")
    with pytest.raises(ValueError):
        drt_rotation(np.ones(4), angles=5)


# --- intensity propagation and config --------------------------------------

def test_propagate_intensity_matches_transform_of_rates():
    img = np.random.default_rng(5).uniform(0, 2, size=(8, 8))
    for cfg in (TransformConfig(variant="gdb"),
                TransformConfig(variant="rotation", angles=12, interp="area")):
        sino = propagate_intensity(img, cfg)
        if cfg.variant == "gdb":
            direct = drt_gdb(img)
        else:
            direct = drt_rotation(img, angles=12, interp="area")
        assert np.allclose(sino.data, direct.data)
        assert sino.variant == cfg.variant


@pytest.mark.parametrize("bad, message", [(np.nan, "non-finite"),
                                          (np.inf, "non-finite"),
                                          (-1.0, "negative rates")])
@pytest.mark.parametrize("stack", [(), (3,)])
def test_propagate_intensity_rejects_bad_rates(bad, message, stack):
    img = np.ones((6, 6) + stack)
    img[2, 3] = bad
    for cfg in (TransformConfig(variant="gdb"), TransformConfig(angles=8)):
        with pytest.raises(ValueError, match=message):
            propagate_intensity(img, cfg)


def test_transform_config_validation():
    with pytest.raises(ValueError):
        TransformConfig(variant="spiral")
    with pytest.raises(ValueError):
        TransformConfig(variant="rotation", interp="bicubic")
    with pytest.raises(ValueError):
        TransformConfig(variant="rotation", angles=0)


@pytest.mark.parametrize("angles", [-3, np.array([]), np.ones((2, 3)),
                                    np.zeros((1, 1))])
def test_transform_config_rejects_bad_angles(angles):
    # rejected when the config is built, not when it is first projected
    with pytest.raises(ValueError, match="angle"):
        TransformConfig(variant="rotation", angles=angles)


@pytest.mark.parametrize("count", [2.5, 2.0, np.float64(4.0)])
def test_non_integer_angle_count_is_rejected(count):
    # int(count) would silently drop the fraction
    with pytest.raises(ValueError, match="angle count must be an integer"):
        TransformConfig(variant="rotation", angles=count)
    with pytest.raises(ValueError, match="angle count must be an integer"):
        drt_rotation(np.ones((6, 6)), angles=count)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_explicit_angles_are_rejected(bad):
    angles = np.array([0.0, bad, 1.0])
    with pytest.raises(ValueError, match="angles must be finite"):
        TransformConfig(variant="rotation", angles=angles)
    with pytest.raises(ValueError, match="angles must be finite"):
        drt_rotation(np.ones((6, 6)), angles=angles)


# --- filtered backprojection -----------------------------------------------

def smooth_phantom(n, radius_frac=0.30, power=6):
    jj, ii = np.mgrid[0:n, 0:n]
    rho = np.hypot(ii - (n - 1) / 2, jj - (n - 1) / 2)
    return np.exp(-((rho / (radius_frac * n)) ** power))


def test_fbp_round_trip_smooth_phantom_interior():
    img = smooth_phantom(64)
    sino = drt_rotation(img, angles=180, interp="area")
    rec = fbp_invert(sino)
    n = img.shape[0]
    jj, ii = np.mgrid[0:n, 0:n]
    interior = np.hypot(ii - (n - 1) / 2, jj - (n - 1) / 2) <= 0.45 * n
    err = np.linalg.norm((rec - img)[interior]) / np.linalg.norm(img[interior])
    assert err <= 0.02


def test_fbp_rejects_gdb_variant():
    sino = drt_gdb(np.ones((8, 8)))
    with pytest.raises(ValueError):
        fbp_invert(sino)


def test_fbp_rejects_a_stack():
    sino = drt_rotation(np.ones((8, 8, 2)), angles=6, interp="area")
    with pytest.raises(ValueError, match=r"\(15, 6, 2\)"):
        fbp_invert(sino)


@pytest.mark.parametrize("angles", [None, np.arange(2.0), np.arange(5.0),
                                    np.array([0.0, 0.5, np.nan, 1.5])])
def test_fbp_needs_one_finite_angle_per_column(angles):
    # fewer angles than columns would back-project only some columns and
    # still scale for all of them
    sino = drt_rotation(np.ones((8, 8)), angles=4, interp="area")
    sino.angles = angles
    with pytest.raises(ValueError, match="one finite angle per column"):
        fbp_invert(sino)
