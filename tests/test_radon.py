import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from poissonridge.radon import (Sinogram, TransformConfig, _area_taps,
                                _trapezoid_cdf, drt_gdb, drt_rotation, fbp_invert, gdb_lines,
                                propagate_intensity)


def line_offsets(n, s):
    return np.array([p[1] for p in gdb_lines(n, 0, s).points])


# --- recursive line family ------------------------------------------------

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


def test_sinogram_offsets_and_gdb_column():
    img = np.ones((4, 4))
    sino = drt_gdb(img)
    assert sino.offsets.tolist() == list(range(-3, 4))
    col = sino.gdb_column(2, 1)
    assert np.allclose(col, sino.data[:, 4 + 1])
    with pytest.raises(ValueError):
        sino.gdb_column(5, 0)
    with pytest.raises(ValueError):
        sino.gdb_column(1, 4)


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
