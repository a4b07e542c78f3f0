"""Discrete Radon transforms and filtered backprojection.

Two sinogram parametrizations are supported:

* ``gdb`` -- recursively-defined discrete lines on a power-of-two grid,
  one point per column, organized in four quadrants of slopes. Every
  coefficient is a plain sum of pixels, so Poisson statistics propagate
  exactly: the coefficient of a rate image is the rate of the coefficient.
* ``rotation`` -- angle bins over [0, pi) with a detector axis sized to
  the image diagonal. Pixels deposit their mass into offset bins with
  weights in [0, 1] that sum to one per pixel, so total mass is conserved
  for every angle and coefficient variance never exceeds coefficient mean
  (sum w^2 <= sum w).

Conventions: the subscript pair (i, j) means column i, row j; for a numpy
array ``a`` that is ``a[j, i]``. Out-of-range points contribute zero.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Sinogram",
    "TransformConfig",
    "drt_gdb",
    "drt_rotation",
    "propagate_intensity",
    "fbp_invert",
]

_ROTATION_MODES = ("nearest", "linear", "area")


def _nonnegative_grid(values, name, unit, stack=False):
    """values as a float array; ValueError unless finite, non-negative
    and 2-D with no empty axis (with stack=True, also a stack of 2-D
    grids along trailing axes)."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2 and not (stack and arr.ndim > 2):
        kind = "2-D or a stack of 2-D grids" if stack else "2-D"
        raise ValueError(f"{name} must be {kind}, got shape {arr.shape}")
    if 0 in arr.shape[:2]:
        raise ValueError(f"{name} has an empty axis: shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    if np.any(arr < 0):
        raise ValueError(f"{name} has negative {unit}s, min {arr.min()!r}")
    return arr


@dataclass
class TransformConfig:
    """Which Radon discretization to run and its knobs.

    interp selects how the rotation variant deposits pixel mass:
    ``nearest`` (whole mass to the closest bin; coefficients are exact
    Poisson sums), ``linear`` (split between the two adjacent bins, the
    column-sum collapse of bilinear rotation) or ``area`` (exact
    unit-square pixel footprint integrated over each bin; smoothest
    projections, preferred upstream of filtered backprojection).
    """

    variant: str = "rotation"
    angles: int = 180
    interp: str = "linear"

    def __post_init__(self):
        if self.variant not in ("rotation", "gdb"):
            raise ValueError(f"unknown transform variant {self.variant!r}")
        if self.interp not in _ROTATION_MODES:
            raise ValueError(f"unknown interpolation mode {self.interp!r}")
        _angle_array(self.angles)


@dataclass
class Sinogram:
    """Dense Radon-domain grid plus the geometry needed to invert it.

    data rows are offset indices; row k holds offset ``offset_min + k``.
    For the rotation variant columns are angle bins; for gdb they are
    (quadrant, slope) pairs flattened as ``(q - 1) * n + s`` with
    q in 1..4 and s in 0..n-1 on the padded edge n. Trailing axes of
    data beyond the first two, if any, index a stack of images.
    """

    variant: str
    data: np.ndarray
    image_shape: tuple
    angles: np.ndarray = None
    interp: str = None

    @property
    def offset_min(self):
        """Offset of row 0: rows are odd in number and symmetric about 0."""
        return -(self.data.shape[0] // 2)

    @property
    def gdb_size(self):
        """Padded grid edge n of a gdb sinogram (2n - 1 rows); 0 otherwise."""
        return (self.data.shape[0] + 1) // 2 if self.variant == "gdb" else 0


def _drt_single_quadrant(a):
    """All-line sums of one quadrant on its native orientation.

    Input a[row, col, ...], square in its first two axes with
    power-of-two edge n; trailing axes are a batch, each transformed on
    its own. Returns an array of shape (n, 2n-1, ...):
    [slope, intercept index, ...], intercept h = idx-(n-1).
    Runs the pairwise column-merge recursion, O(n^2 log n) adds: at each
    level, slope 2s + b of a merged block is slope s of its left half
    plus slope s of its right half shifted by s + b rows. The right
    halves are copied once into a zero-padded buffer and read through a
    sheared view with b as an axis, so a level is one array add; a
    shift past the top of the grid reads the padding (left + 0.0).
    """
    n = a.shape[0]
    batch = a.shape[2:]
    pad = n - 1                   # index of h = 0
    width_h = 3 * n - 2           # h in [-(n-1), 2n-2]; reads never exceed
    z = np.zeros((n, 1, width_h) + batch)
    # width-1 blocks: D_1(h, 0) sums a[h, col]
    z[:, 0, pad:pad + n] = np.swapaxes(a, 0, 1)
    width = 1
    while width < n:
        nb = z.shape[0] // 2
        # the largest read is h + s + b = (width_h - 1) + (width - 1) + 1
        right = np.zeros((nb, width, width_h + width) + batch)
        right[:, :, :width_h] = z[1::2]
        s0, s1, s2 = right.strides[:3]
        # sheared[:, s, b, h] = right[:, s, h + s + b]
        sheared = np.lib.stride_tricks.as_strided(
            right, shape=(nb, width, 2, width_h) + batch,
            strides=(s0, s1 + s2, s2, s2) + right.strides[3:],
            writeable=False)
        # [:, s, b] is slope 2s + b
        z = np.add(z[0::2, :, None], sheared).reshape(
            (nb, 2 * width, width_h) + batch)
        width *= 2
    return z[0, :, :2 * n - 1]    # [slope, h index, ...], h in [-(n-1), n-1]


def _image_stack(img):
    arr = np.asarray(img, dtype=float)
    if arr.ndim < 2:
        raise ValueError(
            f"image must be 2-D or a stack of 2-D images, got shape {arr.shape}")
    if 0 in arr.shape[:2]:
        raise ValueError(f"image has an empty spatial axis: shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("image must be finite: it holds NaN or infinite pixels")
    return arr


def _gdb_edge(h, w):
    """Power-of-two edge n that drt_gdb pads an h x w image to."""
    n = 1
    while n < max(h, w):
        n *= 2
    return n


def drt_gdb(img):
    """Discrete Radon transform over the recursive line family.

    The image is zero-padded to the next power-of-two square. Output
    offsets h run from -(n-1) to n-1. The four quadrants are the
    index-flipped orientations of the line family:
    q1 sums X_{i,j}, q2 sums X_{j,i}, q3 sums X_{i,n-1-j},
    q4 sums X_{n-1-j,i}.

    img[row, col, ...] may carry trailing axes, a stack of images; the
    Sinogram's data is then data[offset, column, ...] and every stack
    entry is bit-identical to transforming that image alone. NaN or
    infinite pixels raise ValueError.
    """
    arr = _image_stack(img)
    n = _gdb_edge(*arr.shape[:2])
    a = np.zeros((n, n) + arr.shape[2:])
    a[:arr.shape[0], :arr.shape[1]] = arr
    views = (a, np.swapaxes(a, 0, 1), a[::-1], np.swapaxes(a[:, ::-1], 0, 1))
    data = np.empty((2 * n - 1, 4 * n) + arr.shape[2:])
    for q, view in enumerate(views):
        # quadrant block columns are slopes; rows are intercepts
        data[:, q * n:(q + 1) * n] = np.swapaxes(_drt_single_quadrant(view), 0, 1)
    return Sinogram(variant="gdb", data=data, image_shape=arr.shape[:2])


# ---------------------------------------------------------------------------
# rotation-parametrized transform

def _angle_array(angles):
    if np.isscalar(angles):
        if not isinstance(angles, numbers.Integral):
            raise ValueError(f"angle count must be an integer, got {angles!r}")
        k = int(angles)
        if k < 1:
            raise ValueError(f"angle count must be >= 1, got {angles}")
        return np.pi * np.arange(k) / k
    arr = np.asarray(angles, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("angles must be a count or a non-empty 1-D array")
    if not np.isfinite(arr).all():
        raise ValueError("explicit angles must be finite")
    return arr


def _angle_orbits(thetas, h, w):
    """Group angle bins into orbits that share one offset geometry.

    Returns a list of (t, cols): member m of an orbit projects view m of
    the image (see _oriented_views) at angle t into output column
    cols[m]. On a centred grid r_{t+pi/2}(x, y) = r_t(y, -x),
    r_{pi-t}(x, y) = r_t(-x, y) and r_{pi/2-t}(x, y) = r_t(y, x), so
    when the grid is square and thetas is bit-equal to the uniform
    pi * arange(n) / n with n % 4 == 0, base bin k in 0..n/4 serves
    {k, n/2 + k, n - k, n/2 - k}; k = 0 and k = n/4 serve only their
    first two. Every other input gets one-angle orbits.
    """
    n = len(thetas)
    uniform = n % 4 == 0 and np.array_equal(thetas, np.pi * np.arange(n) / n)
    if not (h == w and uniform):
        return [(t, (k,)) for k, t in enumerate(thetas)]
    q, half = n // 4, n // 2
    orbits = [(thetas[0], (0, half))]
    orbits += [(thetas[k], (k, half + k, n - k, half - k)) for k in range(1, q)]
    orbits.append((thetas[q], (q, half + q)))
    return orbits


def _oriented_views(arr, n_views):
    """The first n_views of arr, rot90(arr), arr[:, ::-1] and arr.T.

    Only the first two axes are turned; trailing stack axes stay put.
    """
    views = (arr, np.rot90(arr), arr[:, ::-1], np.swapaxes(arr, 0, 1))
    return views[:n_views]


def _sum_unturned(images):
    """Sum of images[v], each turned back from view v of _oriented_views.

    Accumulates into images[0].
    """
    out = images[0]
    for image, unturn in zip(images[1:], (lambda a: np.rot90(a, -1),
                                          np.fliplr, np.transpose)):
        out += unturn(image)
    return out


def _rotation_radius(h, w):
    """Largest offset of a rotation sinogram of an h x w image.

    The sinogram has 2 * radius + 1 offset rows.
    """
    return int(np.ceil(np.hypot((h - 1) / 2.0, (w - 1) / 2.0))) + 2


def _orbit_taps(orbits, h, w, radius, interp):
    """Yield (cols, row, parts) per orbit (t, cols) of _angle_orbits.

    Over the h x w pixels in raster order, r = y sin t + x cos t on the
    centred grid, row = rounding(r) + radius (np.intp) with np.rint for
    ``nearest`` and np.floor otherwise, and frac = r - rounding(r): the
    one offset geometry of drt_rotation and _backproject. Each part
    (pixels, lead, tap) puts tap[i] of the mass of pixel pixels[i] into
    bin row[pixels[i]] + lead, pixels ascending; pixels is slice(None)
    for a part over every pixel. Parts come in ascending lead:
    ``nearest`` one tap of 1.0, ``linear`` (and ``area`` at an
    axis-aligned angle) 1 - frac and frac, tilted ``area`` the four bins
    of _area_taps with its zero end taps left out. Every array yielded
    is a buffer the next orbit overwrites.
    """
    npix = h * w
    every = slice(None)
    ones = np.broadcast_to(1.0, (npix,))
    ys = np.arange(h) - (h - 1) / 2.0
    xs = np.arange(w) - (w - 1) / 2.0
    r, base, frac = np.empty((3, npix))
    row = np.empty(npix, dtype=np.intp)
    taps, work = np.empty((2, npix)), np.empty((2, npix))
    rounding = np.rint if interp == "nearest" else np.floor
    for t, cols in orbits:
        np.add.outer(ys * np.sin(t), xs * np.cos(t), out=r.reshape(h, w))
        rounding(r, out=base)
        np.subtract(r, base, out=frac)
        np.copyto(row, base, casting="unsafe")
        np.add(row, radius, out=row)
        ct, st = abs(np.cos(t)), abs(np.sin(t))
        a, b = max(ct, st), min(ct, st)
        if interp == "nearest":
            parts = [(every, 0, ones)]
        elif interp == "linear" or b < 1e-12:
            # an axis-aligned area footprint is box(1), which overlaps
            # unit bins exactly as linear interpolation splits mass
            np.subtract(1.0, frac, out=taps[0])
            parts = [(every, 0, taps[0]), (every, 1, frac)]
        else:
            lo, f0, hi, tail = _area_taps(frac, a, b, taps, work)
            parts = [(lo, -1, f0), (every, 0, taps[0]), (every, 1, taps[1]),
                     (hi, 2, tail)]
        yield cols, row, parts


def drt_rotation(img, angles=180, interp="linear"):
    """Radon transform on angle bins over [0, pi).

    Parameters
    ----------
    img : ndarray
        2-D image (any rectangle), or a stack of images along trailing
        axes: img[row, col, ...]. NaN or infinite pixels raise
        ValueError.
    angles : int or 1-D array
        Number of uniform angle bins, or explicit angles in radians.
    interp : str
        ``nearest``, ``linear`` or ``area``; see TransformConfig.

    Returns
    -------
    Sinogram
        data[k, t, ...] is the mass at offset ``offset_min + k``, angle t.
        Offsets cover the image diagonal; every pixel's weights sum to 1
        at each angle, so each projection's total equals the image total.

    Angles are grouped by _angle_orbits: on a square grid with a
    uniform angle count divisible by 4, one pass of _orbit_taps serves
    up to four angles, each projecting a turned or mirrored view of the
    image. ``nearest`` takes np.rint of the offset computed on that view
    at the base angle; within rounding of a half-integer that can be the
    other nearest bin than np.rint at the projected angle. Each orbit
    lays out the deposit bins of all stack entries once, entry e's
    offset by e * nr, weights every view with one multiply per tap
    part, and deposits each view with its own np.bincount: within an
    entry in the same (tap, pixel) order as a single image, so every
    stack entry is bit-identical to transforming that image alone.
    _backproject gathers along the same taps: it is the exact transpose.

    A tilted ``area`` footprint spans at most sqrt 2 bins, so of its 4
    taps floor(r) - 1 .. floor(r) + 2 the first is non-zero only where
    frac < c - 1/2 and the last only where frac > 3/2 - c (c the
    footprint's half-width); the other end taps are exactly +0.0 and are
    not deposited. At 128 px and 180 angles that is 2.27 deposits per
    pixel and angle instead of 3.98. The output is unchanged to the
    bit: every bin adds the same non-zero terms in the same order, and
    a bincount sum starts at +0.0, to which adding a zero term changes
    nothing.
    """
    if interp not in _ROTATION_MODES:
        raise ValueError(f"unknown interpolation mode {interp!r}")
    arr = _image_stack(img)
    thetas = _angle_array(angles)
    h, w = arr.shape[:2]
    batch = arr.shape[2:]
    n_img = math.prod(batch)
    npix = h * w
    orbits = _angle_orbits(thetas, h, w)
    n_views = max(len(cols) for _, cols in orbits)
    # vals[v * n_img + e] is stack entry e seen through view v
    vals = np.concatenate([view.reshape(npix, n_img).T
                           for view in _oriented_views(arr, n_views)])
    radius = _rotation_radius(h, w)
    nr = 2 * radius + 1
    # deposit bins and weights, reused; sized for all taps of every pixel
    # so that the largest block a call frees does not depend on the
    # angles (glibc's mmap threshold follows it, and with it the
    # caller's page faults)
    max_taps = {"nearest": 1, "linear": 2, "area": 4}[interp]
    bin_buf = np.empty(n_img * max_taps * npix, dtype=np.intp)
    weight_buf = np.empty(len(vals) * max_taps * npix)
    entry_bins = (np.arange(n_img) * nr)[:, None]
    out = np.empty((nr, len(thetas), n_img))
    for cols, row, parts in _orbit_taps(orbits, h, w, radius, interp):
        # entry e lays out its parts one after another, tap[i] of a part
        # going into bin e * nr + row[pixels[i]] + lead; every view of
        # the orbit deposits into these bins
        sizes = [len(tap) for _, _, tap in parts]
        size = sum(sizes)
        bins = bin_buf[:n_img * size].reshape(n_img, size)
        # row v * n_img + e of weights is view v, entry e; all views of a
        # part come from one multiply. A one-view buffer was faster in
        # isolation, but with no large block freed glibc kept its trim
        # threshold low, and the caller's heap was page-faulted again on
        # every op
        weights = weight_buf[:len(cols) * n_img * size].reshape(-1, size)
        stop = 0
        for (pixels, lead, tap), part_size in zip(parts, sizes):
            start, stop = stop, stop + part_size
            np.add(row[pixels], entry_bins + lead, out=bins[:, start:stop])
            np.multiply(vals[:len(weights), pixels], tap,
                        out=weights[:, start:stop])
        flat_bins = bins.reshape(-1)
        for col, view_weights in zip(
                cols, weights.reshape(len(cols), n_img * size)):
            dep = np.bincount(flat_bins, view_weights, minlength=n_img * nr)
            out[:, col] = dep.reshape(n_img, nr).T
    return Sinogram(
        variant="rotation",
        data=out.reshape((nr, len(thetas)) + batch),
        image_shape=(h, w),
        angles=thetas,
        interp=interp,
    )


def _area_taps(frac, a, b, mid, work):
    """Area-footprint weights of the 4 bins floor(r) - 1 .. floor(r) + 2.

    The footprint of a unit pixel at angle t is box(a) convolved with
    box(b), a = max(|cos t|, |sin t|) >= b = min(..) > 0: a trapezoid
    whose CDF is parabolic, linear, then parabolic again. The half-width
    c = (a + b) / 2 lies in (1/2, 1/sqrt 2], so the CDF is 0 at the
    outer edge -3/2 - f and 1 at 5/2 - f
    (f = frac = r - floor(r)), and each inner edge u = [-1/2, 1/2, 3/2] - f
    falls on a known piece, with no mask: the first on the left parabola,
    F0 = max(c - 1/2 - f, 0)^2 / 2ab, the last on the right one,
    1 - F2 = max(f - 3/2 + c, 0)^2 / 2ab, and the middle one is the
    linear piece at w = clip(u, -d, d), d = (a - b) / 2, plus the
    parabola's excess e (2b - |e|) / 2ab at e = u - w. (Summing the
    squared pieces directly cancels catastrophically as b -> 0.)

    Returns (lo, f0, hi, tail): F0 at the ascending pixels lo where
    f < c - 1/2 and 1 - F2 at the pixels hi where f > 3/2 - c, each > 0
    before underflow; at every other pixel that end tap is exactly 0.0.
    mid[0] and mid[1] get F1 - F0 and F2 - F1 = (1 - F1) - (1 - F2) at
    every pixel, with the end tap subtracted only where it is not 0.0
    (x - 0.0 is x). All taps are >= 0; work is a (2, npix) buffer.
    """
    c = (a + b) / 2.0
    d = (a - b) / 2.0
    inv_s = 1.0 / (2.0 * a * b)
    lo = np.flatnonzero(frac < c - 0.5)
    hi = np.flatnonzero(frac > 1.5 - c)
    f0 = np.square(c - 0.5 - frac[lo])
    f0 *= inv_s
    tail = np.square(frac[hi] - (1.5 - c))
    tail *= inv_s
    # F1 = 1/2 + w / a + e (2b - |e|) / 2ab at u = 1/2 - f
    f1, f2 = mid
    u, clip = work
    np.subtract(0.5, frac, out=u)
    np.clip(u, -d, d, out=clip)
    np.subtract(u, clip, out=u)
    np.abs(u, out=f1)
    np.subtract(2.0 * b, f1, out=f1)
    np.multiply(f1, u, out=f1)
    np.multiply(f1, inv_s, out=f1)
    np.multiply(clip, 1.0 / a, out=clip)
    np.add(clip, 0.5, out=clip)
    np.add(f1, clip, out=f1)
    # the middle taps: F2 - F1 = (1 - F1) - (1 - F2), then F1 - F0
    np.subtract(1.0, f1, out=f2)
    f2[hi] -= tail
    f1[lo] -= f0
    return lo, f0, hi, tail


def propagate_intensity(intensity, config):
    """Radon-domain rates implied by an image of Poisson rates.

    Both discretizations are linear with non-negative weights, so the
    transform of the rate image is exactly the rate (and, for the gdb
    variant, also the variance) of every transformed coefficient.

    This is the one place a TransformConfig picks its projector:
    drt_gdb or drt_rotation with the config's angles and interp. Like
    them it takes one image or a stack along trailing axes. Negative,
    NaN or infinite rates raise ValueError before anything is projected.
    """
    arr = _nonnegative_grid(intensity, "intensity image", "rate", stack=True)
    if config.variant == "gdb":
        return drt_gdb(arr)
    return drt_rotation(arr, angles=config.angles, interp=config.interp)


def _column_length(shape, config):
    """Offset rows of the sinogram config projects an image of shape to.

    gdb: 2n - 1 on the padded power-of-two edge n; rotation:
    2 * radius + 1. Entry points check a wavelet's depth against it
    before anything is projected.
    """
    h, w = shape[:2]
    if config.variant == "gdb":
        return 2 * _gdb_edge(h, w) - 1
    return 2 * _rotation_radius(h, w) + 1


def _check_column_wavelet(wavelet):
    """Reject a decimated wavelet: Radon columns have odd length."""
    if wavelet is not None and wavelet.mode == "decimated":
        raise ValueError(
            "decimated wavelets cannot analyze Radon columns: the offset "
            "axis always has odd length (gdb 2n-1, rotation 2r+1); use "
            "mode = undecimated")


# ---------------------------------------------------------------------------
# filtered backprojection

def _backproject(data, thetas, shape, interp):
    """A^T data, the exact transpose of drt_rotation for one image.

    data[offset, angle] has a row for every bin that drt_rotation
    deposits an image of this shape into. Each tap part (pixels, lead,
    tap) of _orbit_taps, walked over drt_rotation's orbits, gathers
    tap * data[row + lead, col] into the image of col's view.
    """
    h, w = shape
    orbits = _angle_orbits(thetas, h, w)
    # columns[k, 1 + j] is data[j, k]; the zero ahead serves lead -1
    columns = np.pad(data.T, ((0, 0), (1, 0)))
    acc = np.zeros((max(len(cols) for _, cols in orbits), h * w))
    gather_buf = np.empty(acc.size)
    for cols, row, parts in _orbit_taps(orbits, h, w, data.shape[0] // 2,
                                        interp):
        views = columns[list(cols)]
        for pixels, lead, tap in parts:
            gather = gather_buf[:len(cols) * len(tap)].reshape(len(cols), -1)
            # every bin is in range: mode="clip" only skips a buffered check
            np.take(views[:, 1 + lead:], row[pixels], axis=1, out=gather,
                    mode="clip")
            gather *= tap
            acc[:len(cols), pixels] += gather
    return _sum_unturned(acc.reshape(-1, h, w))


def _ramp_filter(npad):
    # half spectrum of the spatial-domain ramp kernel, which avoids the DC
    # bias of a directly-sampled frequency ramp; the kernel is real and
    # even, so its spectrum is real
    f = np.zeros(npad)
    f[0] = 0.25
    odd = np.arange(1, npad // 2, 2)
    f[odd] = f[-odd] = -1.0 / (np.pi * odd) ** 2
    return 2.0 * np.fft.rfft(f).real


def fbp_invert(sino):
    """Filtered backprojection of a rotation-variant sinogram.

    Ramp-filters each projection (spatial-domain kernel, FFT applied,
    zero-padded against circular wrap) and applies (pi / 2 n_angles)
    times the transpose of the ``linear`` projector, _backproject. The
    result is the raw reconstruction: the ramp filter's negative lobes
    are kept; denoise zeroes them in its final estimate. Empty, stacked
    or non-finite input raises ValueError before anything is filtered.
    """
    if sino.variant != "rotation":
        raise ValueError(
            f"fbp_invert is not implemented for variant {sino.variant!r}")
    h, w = sino.image_shape
    if sino.data.ndim != 2 or 0 in sino.data.shape or min(h, w) < 1:
        raise ValueError(
            f"fbp_invert takes one non-empty sinogram of a non-empty image, "
            f"got data of shape {sino.data.shape} for image_shape {(h, w)}")
    if not np.isfinite(sino.data).all():
        raise ValueError("fbp_invert needs finite sinogram data")
    nr, nth = sino.data.shape
    thetas = np.asarray(sino.angles, dtype=float)
    if thetas.shape != (nth,) or not np.isfinite(thetas).all():
        raise ValueError(
            f"fbp_invert needs one finite angle per column: {nth} columns, "
            f"angles of shape {thetas.shape}")
    radius = -sino.offset_min
    # the linear transpose gathers rows floor(r) and floor(r) + 1 for
    # every pixel's offset r, |r| at most the half-diagonal; both must exist
    if np.hypot((h - 1) / 2.0, (w - 1) / 2.0) + 1.0 > radius:
        raise ValueError(
            f"sinogram offsets reach only +-{radius}, too few for the "
            f"diagonal of a {h}x{w} image")
    npad = int(2 ** np.ceil(np.log2(2 * nr)))
    spectrum = np.fft.rfft(sino.data, n=npad, axis=0)
    spectrum *= _ramp_filter(npad)[:, None]
    filtered = np.fft.irfft(spectrum, n=npad, axis=0)[:nr]
    return np.pi / (2 * nth) * _backproject(filtered, thetas, (h, w), "linear")
