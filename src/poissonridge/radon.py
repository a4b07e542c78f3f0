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

from .phantoms import _nonnegative_grid

__all__ = [
    "Sinogram",
    "TransformConfig",
    "drt_gdb",
    "drt_rotation",
    "propagate_intensity",
    "fbp_invert",
]

_ROTATION_MODES = ("nearest", "linear", "area")


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
    entry is bit-identical to transforming that image alone.
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


def _angle_orbits(thetas, h, w, fold=True):
    """Group angle bins into orbits that share one offset geometry.

    Returns a list of (t, cols): member m of an orbit projects view m of
    the image (see _oriented_views) at angle t into output column
    cols[m]. On a centred grid r_{t+pi/2}(x, y) = r_t(y, -x),
    r_{pi-t}(x, y) = r_t(-x, y) and r_{pi/2-t}(x, y) = r_t(y, x), so
    when the grid is square and thetas is bit-equal to the uniform
    pi * arange(n) / n with n % 4 == 0, base bin k in 0..n/4 serves
    {k, n/2 + k, n - k, n/2 - k}; k = 0 and k = n/4 serve only their
    first two. Every other input, and fold=False, gets one-angle orbits.
    """
    n = len(thetas)
    uniform = n % 4 == 0 and np.array_equal(thetas, np.pi * np.arange(n) / n)
    if not (fold and h == w and uniform):
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


def drt_rotation(img, angles=180, interp="linear"):
    """Radon transform on angle bins over [0, pi).

    Parameters
    ----------
    img : ndarray
        2-D image (any rectangle), or a stack of images along trailing
        axes: img[row, col, ...].
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
    uniform angle count divisible by 4, one pass of offsets, floor/frac
    and taps serves up to four angles, each projecting a turned or
    mirrored view of the image (``nearest`` is never folded, because
    np.rint breaks exact half-integer ties differently on the folded
    geometry). Each orbit builds the deposit bins of all stack entries
    once, entry e's offset by e * nr, weights every view in one
    multiply, and deposits each view with its own np.bincount: within
    an entry in the same (tap, pixel) order as a single image, so every
    stack entry is bit-identical to transforming that image alone.
    """
    if interp not in _ROTATION_MODES:
        raise ValueError(f"unknown interpolation mode {interp!r}")
    arr = _image_stack(img)
    thetas = _angle_array(angles)
    h, w = arr.shape[:2]
    batch = arr.shape[2:]
    n_img = math.prod(batch)
    npix = h * w
    orbits = _angle_orbits(thetas, h, w, fold=interp != "nearest")
    n_views = max(len(cols) for _, cols in orbits)
    # vals[v * n_img + e] is stack entry e seen through view v
    vals = np.concatenate([view.reshape(npix, n_img).T
                           for view in _oriented_views(arr, n_views)])
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    radius = _rotation_radius(h, w)
    nr = 2 * radius + 1
    ys = np.arange(h) - cy
    xs = np.arange(w) - cx
    max_taps = {"nearest": 1, "linear": 2, "area": 4}[interp]
    # per-orbit buffers, reused: offsets r, floor(r) (or rint(r)) and
    # r - floor(r), the first bin, tap weights, deposit bins and weights
    ysin, xcos = np.empty(h), np.empty(w)
    r = np.empty((h, w))
    flat_r = r.reshape(-1)
    base, frac = np.empty(npix), np.empty(npix)
    first = np.empty(npix, dtype=np.intp)
    taps = np.ones((max_taps, npix))             # nearest keeps tap 1.0
    u, clip = np.empty(npix), np.empty(npix)
    bin_buf = np.empty(n_img * max_taps * npix, dtype=np.intp)
    weight_buf = np.empty(len(vals) * max_taps * npix)
    entry_offsets = (np.arange(1, n_img) * nr)[:, None, None]
    out = np.empty((nr, len(thetas), n_img))
    for t, cols in orbits:
        ct, st = np.cos(t), np.sin(t)
        np.add.outer(np.multiply(ys, st, out=ysin),
                     np.multiply(xs, ct, out=xcos), out=r)
        if interp == "nearest":
            np.rint(flat_r, out=base)
            n_taps, lead = 1, 0
        else:
            np.floor(flat_r, out=base)
            np.subtract(flat_r, base, out=frac)
            a, b = max(abs(ct), abs(st)), min(abs(ct), abs(st))
            if interp == "linear" or b < 1e-12:
                # an axis-aligned area footprint is box(1), which overlaps
                # unit bins exactly as linear interpolation splits mass
                np.subtract(1.0, frac, out=taps[0])
                taps[1] = frac
                n_taps, lead = 2, 0
            else:
                _area_taps(frac, a, b, taps, u, clip)
                n_taps, lead = 4, -1
        # entry e, tap m, pixel p deposits into bin e*nr + first[p] + m;
        # every view of the orbit deposits into these bins
        size = n_img * n_taps * npix
        bins = bin_buf[:size].reshape(n_img, n_taps, npix)
        np.copyto(first, base, casting="unsafe")
        np.add(first, radius + lead, out=first)
        np.add(first, np.arange(n_taps)[:, None], out=bins[0])
        np.add(bins[0], entry_offsets, out=bins[1:])
        flat_bins = bins.reshape(-1)
        # row v of weights is view v's (entry, tap, pixel) weights, all
        # from one multiply. A one-view buffer was faster in isolation,
        # but with no large block freed glibc kept its trim threshold
        # low, and the caller's heap was page-faulted again on every op
        weights = weight_buf[:len(cols) * size].reshape(len(cols), size)
        np.multiply(vals[:len(cols) * n_img, None, :], taps[:n_taps],
                    out=weights.reshape(-1, n_taps, npix))
        for col, view_weights in zip(cols, weights):
            dep = np.bincount(flat_bins, view_weights, minlength=n_img * nr)
            out[:, col] = dep.reshape(n_img, nr).T
    return Sinogram(
        variant="rotation",
        data=out.reshape((nr, len(thetas)) + batch),
        image_shape=(h, w),
        angles=thetas,
        interp=interp,
    )


def _area_taps(frac, a, b, taps, u, clip):
    """Area-footprint weights of the 4 bins floor(r) - 1 .. floor(r) + 2.

    The footprint of a unit pixel at angle t is box(a) convolved with
    box(b), a = max(|cos t|, |sin t|) >= b = min(..) > 0: a trapezoid
    whose CDF is parabolic, linear, then parabolic again. The half-width
    c = (a + b) / 2 lies in (1/2, 1/sqrt 2], so the CDF is 0 at the
    outer edge -3/2 - f and 1 at 5/2 - f
    (f = frac = r - floor(r)), and each inner edge u = [-1/2, 1/2, 3/2] - f
    falls on a known piece, with no mask: the first on the left parabola,
    the last on the right one, and the middle one is the linear piece at
    w = clip(u, -d, d), d = (a - b) / 2, plus the parabola's excess
    e (2b - |e|) / 2ab at e = u - w. (Summing the squared pieces
    directly cancels catastrophically as b -> 0.) taps[0..3] get
    F0, F1 - F0, F2 - F1, 1 - F2, each >= 0; u and clip are work buffers.
    """
    c = (a + b) / 2.0
    d = (a - b) / 2.0
    inv_s = 1.0 / (2.0 * a * b)
    f0, f1, f2, tail = taps
    # F0 = max(c - 1/2 - f, 0)^2 / 2ab and 1 - F2 = max(f - 3/2 + c, 0)^2 / 2ab
    np.subtract(c - 0.5, frac, out=f0)
    np.maximum(f0, 0.0, out=f0)
    np.square(f0, out=f0)
    np.multiply(f0, inv_s, out=f0)
    np.subtract(frac, 1.5 - c, out=tail)
    np.maximum(tail, 0.0, out=tail)
    np.square(tail, out=tail)
    np.multiply(tail, inv_s, out=tail)
    # F1 = 1/2 + w / a + e (2b - |e|) / 2ab at u = 1/2 - f
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
    np.subtract(f2, tail, out=f2)
    np.subtract(f1, f0, out=f1)


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

def _ramp_filter(npad):
    # spatial-domain ramp kernel, transformed; avoids the DC bias of a
    # directly-sampled frequency ramp
    f = np.zeros(npad)
    f[0] = 0.25
    odd = np.arange(1, npad // 2, 2)
    f[odd] = -1.0 / (np.pi * odd) ** 2
    f[-odd] = -1.0 / (np.pi * odd) ** 2
    return 2.0 * np.real(np.fft.fft(f))


def fbp_invert(sino):
    """Filtered backprojection of a rotation-variant sinogram.

    Ramp-filters each projection (spatial-domain kernel, FFT applied,
    zero-padded against circular wrap) and backprojects with linear
    interpolation on the offset axis. The result is the raw
    reconstruction: the ramp filter's negative lobes are kept, and
    clipping them is left to the caller (denoise's clamp_negative).

    Angles are grouped by _angle_orbits as in drt_rotation: one
    floor/frac pass per orbit reads every member's filtered column and
    its bin-to-bin slope at the same bins, into one image per view,
    and the views are turned back and summed at the end.
    """
    if sino.variant != "rotation":
        raise ValueError(
            f"fbp_invert is not implemented for variant {sino.variant!r}")
    if sino.data.ndim != 2:
        raise ValueError(
            f"fbp_invert takes one sinogram, got data of shape "
            f"{sino.data.shape}")
    nr, nth = sino.data.shape
    thetas = np.asarray(sino.angles, dtype=float)
    if thetas.shape != (nth,) or not np.isfinite(thetas).all():
        raise ValueError(
            f"fbp_invert needs one finite angle per column: {nth} columns, "
            f"angles of shape {thetas.shape}")
    h, w = sino.image_shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    radius = -sino.offset_min
    # the gather below reads rows floor(r) and floor(r) + 1 for every
    # pixel's offset r, |r| <= hypot(cy, cx); both must exist
    if np.hypot(cy, cx) + 1.0 > radius:
        raise ValueError(
            f"sinogram offsets reach only +-{radius}, too few for the "
            f"diagonal of a {h}x{w} image")
    npad = int(2 ** np.ceil(np.log2(2 * nr)))
    ramp = _ramp_filter(npad)
    padded = np.zeros((npad, nth))
    padded[:nr] = sino.data
    # filtered[k] is angle k's filtered column, slope[k] its differences
    filtered = np.real(np.fft.ifft(np.fft.fft(padded, axis=0) * ramp[:, None],
                                   axis=0))[:nr].T.copy()
    slope = np.diff(filtered, axis=1)
    orbits = _angle_orbits(thetas, h, w)
    ys = np.arange(h) - cy
    xs = np.arange(w) - cx
    r = np.empty((h, w))
    base, frac = np.empty((h, w)), np.empty((h, w))
    idx = np.empty((h, w), dtype=np.intp)
    gather, value = np.empty((h, w)), np.empty((h, w))
    acc = np.zeros((max(len(cols) for _, cols in orbits), h, w))
    for t, cols in orbits:
        np.add.outer(ys * np.sin(t), xs * np.cos(t), out=r)
        np.floor(r, out=base)
        np.subtract(r, base, out=frac)
        np.copyto(idx, base, casting="unsafe")
        np.add(idx, radius, out=idx)
        # np.interp's slope * (r - offset) + value; idx is in range, so
        # mode="clip" only spares np.take its buffered bounds check
        for view, col in zip(acc, cols):
            np.take(slope[col], idx, out=gather, mode="clip")
            np.multiply(gather, frac, out=gather)
            np.take(filtered[col], idx, out=value, mode="clip")
            np.add(gather, value, out=gather)
            view += gather
    rec = _sum_unturned(acc)
    rec *= np.pi / (2 * nth)
    return rec
