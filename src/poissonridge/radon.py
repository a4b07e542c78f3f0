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

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DiscreteLine",
    "Sinogram",
    "TransformConfig",
    "gdb_lines",
    "drt_gdb",
    "drt_rotation",
    "propagate_intensity",
    "fbp_invert",
]

_ROTATION_MODES = ("nearest", "linear", "area")


@dataclass(frozen=True)
class DiscreteLine:
    """A discrete line D_n(h, s): n points, one per column."""

    n: int
    intercept: int
    slope: int
    points: tuple


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
        if np.isscalar(self.angles) and self.angles < 1:
            raise ValueError("angle count must be positive")


@dataclass
class Sinogram:
    """Dense Radon-domain grid plus the geometry needed to invert it.

    data rows are offset indices; row k holds offset ``offset_min + k``.
    For the rotation variant columns are angle bins; for gdb they are
    (quadrant, slope) pairs flattened as ``(q - 1) * n + s`` with
    q in 1..4 and s in 0..n-1 on the padded edge n.
    """

    variant: str
    data: np.ndarray
    image_shape: tuple
    offset_min: int
    angles: np.ndarray = None
    interp: str = None
    gdb_size: int = 0

    @property
    def offsets(self):
        return self.offset_min + np.arange(self.data.shape[0])

    def gdb_column(self, quadrant, slope):
        """Coefficient column for one (quadrant, slope) pair."""
        if self.variant != "gdb":
            raise ValueError("gdb_column is only defined for the gdb variant")
        n = self.gdb_size
        if not 1 <= quadrant <= 4:
            raise ValueError(f"quadrant must be in 1..4, got {quadrant}")
        if not 0 <= slope < n:
            raise ValueError(f"slope must be in 0..{n - 1}, got {slope}")
        return self.data[:, (quadrant - 1) * n + slope]


# ---------------------------------------------------------------------------
# gdb discrete lines

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

    Parameters
    ----------
    n : int
        Grid edge, a power of two.
    h : int
        Intercept (row of the first column). May place the line partly
        or fully outside the grid; sums over it treat such points as 0.
    s : int
        Slope in 0..n-1.

    Returns
    -------
    DiscreteLine
        Point list ordered by column, exactly one point per column.
    """
    _check_pow2(n)
    if not 0 <= s <= n - 1:
        raise ValueError(f"slope must be in 0..{n - 1}, got {s}")
    offs = _gdb_offsets(n, s)
    pts = tuple((i, int(h + offs[i])) for i in range(n))
    return DiscreteLine(n=n, intercept=int(h), slope=int(s), points=pts)


def _drt_single_quadrant(a):
    """All-line sums of one quadrant on its native orientation.

    Input a[row, col, ...], square in its first two axes with
    power-of-two edge n; trailing axes are a batch, each transformed on
    its own. Returns an array of shape (n, 2n-1, ...):
    [slope, intercept index, ...], intercept h = idx-(n-1).
    Runs the pairwise column-merge recursion, O(n^2 log n) adds.
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
        znew = np.zeros((nb, 2 * width, width_h) + batch)
        left = z[0::2]
        right = z[1::2]
        for snew in range(2 * width):
            shalf = snew // 2
            shift = snew - shalf
            if shift == 0:
                znew[:, snew, :] = left[:, shalf, :] + right[:, shalf, :]
            else:
                znew[:, snew, :width_h - shift] = (
                    left[:, shalf, :width_h - shift]
                    + right[:, shalf, shift:])
                # beyond that the right half starts above the grid: zero
                znew[:, snew, width_h - shift:] = left[:, shalf, width_h - shift:]
        z = znew
        width *= 2
    return z[0, :, :2 * n - 1]    # [slope, h index, ...], h in [-(n-1), n-1]


def _drt_gdb_stack(stack):
    """gdb sinogram data of images stacked along trailing axes.

    stack[row, col, ...] gives data[offset, column, ...]. The image is
    zero-padded to the next power-of-two square n and the quadrants are
    laid out as in drt_gdb, which is this function on one 2-D image.
    Every batch entry is bit-identical to transforming it alone.
    """
    arr = np.asarray(stack, dtype=float)
    n = 1
    while n < max(arr.shape[:2]):
        n *= 2
    a = np.zeros((n, n) + arr.shape[2:])
    a[:arr.shape[0], :arr.shape[1]] = arr
    views = (a, np.swapaxes(a, 0, 1), a[::-1], np.swapaxes(a[:, ::-1], 0, 1))
    data = np.empty((2 * n - 1, 4 * n) + arr.shape[2:])
    for q, view in enumerate(views):
        # quadrant block columns are slopes; rows are intercepts
        data[:, q * n:(q + 1) * n] = np.swapaxes(_drt_single_quadrant(view), 0, 1)
    return data


def drt_gdb(img):
    """Discrete Radon transform over the recursive line family.

    The image is zero-padded to the next power-of-two square. Output
    offsets h run from -(n-1) to n-1. The four quadrants are the
    index-flipped orientations of the line family:
    q1 sums X_{i,j}, q2 sums X_{j,i}, q3 sums X_{i,n-1-j},
    q4 sums X_{n-1-j,i}.
    """
    arr = np.asarray(img, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"image must be 2-D, got shape {arr.shape}")
    data = _drt_gdb_stack(arr)
    n = data.shape[1] // 4
    return Sinogram(
        variant="gdb",
        data=data,
        image_shape=arr.shape,
        offset_min=-(n - 1),
        gdb_size=n,
    )


# ---------------------------------------------------------------------------
# rotation-parametrized transform

def _angle_array(angles):
    if np.isscalar(angles):
        k = int(angles)
        if k < 1:
            raise ValueError(f"angle count must be >= 1, got {angles}")
        return np.pi * np.arange(k) / k
    arr = np.asarray(angles, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("angles must be a count or a non-empty 1-D array")
    return arr


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


def drt_rotation(img, angles=180, interp="linear"):
    """Radon transform on angle bins over [0, pi).

    Parameters
    ----------
    img : ndarray
        2-D image (any rectangle).
    angles : int or 1-D array
        Number of uniform angle bins, or explicit angles in radians.
    interp : str
        ``nearest``, ``linear`` or ``area``; see TransformConfig.

    Returns
    -------
    Sinogram
        data[k, t] is the mass at offset ``offset_min + k``, angle t.
        Offsets cover the image diagonal; every pixel's weights sum to 1
        at each angle, so each projection's total equals the image total.
    """
    if interp not in _ROTATION_MODES:
        raise ValueError(f"unknown interpolation mode {interp!r}")
    arr = np.asarray(img, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"image must be 2-D, got shape {arr.shape}")
    thetas = _angle_array(angles)
    h, w = arr.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    radius = int(np.ceil(np.hypot(cy, cx))) + 2
    nr = 2 * radius + 1
    jj, ii = np.mgrid[0:h, 0:w]
    x = (ii.ravel() - cx).astype(float)
    y = (jj.ravel() - cy).astype(float)
    v = arr.ravel()
    # inner edges, relative to floor(r), of the four bins floor(r) - 1 ..
    # floor(r) + 2 that a tilted area footprint can reach: its half-width
    # (a + b) / 2 is at most 1 / sqrt(2), so the footprint CDF is exactly
    # 0 at the outer edge -1.5 and 1 at the outer edge 2.5
    area_edges = np.array([[-0.5], [0.5], [1.5]])
    out = np.empty((nr, thetas.size))
    for k, t in enumerate(thetas):
        r = x * np.cos(t) + y * np.sin(t)
        if interp == "nearest":
            first = np.rint(r).astype(np.int64)
            taps = (v,)
        else:
            base = np.floor(r)
            ct, st = abs(np.cos(t)), abs(np.sin(t))
            a, b = max(ct, st), min(ct, st)
            if interp == "linear" or b < 1e-12:
                # an axis-aligned area footprint is box(1), which overlaps
                # unit bins exactly as linear interpolation splits mass
                frac = r - base
                first = base.astype(np.int64)
                taps = (v * (1.0 - frac), v * frac)
            else:
                cdf = _trapezoid_cdf(base + area_edges - r, a, b)
                first = base.astype(np.int64) - 1
                taps = (v * cdf[0], v * (cdf[1] - cdf[0]),
                        v * (cdf[2] - cdf[1]), v * (1.0 - cdf[2]))
        first += radius
        bins = np.concatenate([first + m for m in range(len(taps))])
        out[:, k] = np.bincount(bins, np.concatenate(taps), minlength=nr)
    return Sinogram(
        variant="rotation",
        data=out,
        image_shape=arr.shape,
        offset_min=-radius,
        angles=thetas,
        interp=interp,
    )


def propagate_intensity(intensity, config):
    """Radon-domain rates implied by an image of Poisson rates.

    Both discretizations are linear with non-negative weights, so the
    transform of the rate image is exactly the rate (and, for the gdb
    variant, also the variance) of every transformed coefficient.
    """
    arr = np.asarray(intensity, dtype=float)
    if arr.min() < 0:
        raise ValueError("intensity image has negative rates")
    if config.variant == "gdb":
        return drt_gdb(arr)
    return drt_rotation(arr, angles=config.angles, interp=config.interp)


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
    zero-padded against circular wrap), backprojects with linear
    interpolation on the offset axis and clamps negatives to zero.
    """
    if sino.variant != "rotation":
        raise ValueError(
            f"fbp_invert is not implemented for variant {sino.variant!r}")
    nr, nth = sino.data.shape
    npad = int(2 ** np.ceil(np.log2(2 * nr)))
    ramp = _ramp_filter(npad)
    padded = np.zeros((npad, nth))
    padded[:nr] = sino.data
    filtered = np.real(
        np.fft.ifft(np.fft.fft(padded, axis=0) * ramp[:, None], axis=0))[:nr]
    h, w = sino.image_shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    jj, ii = np.mgrid[0:h, 0:w]
    xg = ii - cx
    yg = jj - cy
    roffs = sino.offsets.astype(float)
    rec = np.zeros((h, w))
    for k, t in enumerate(sino.angles):
        r = xg * np.cos(t) + yg * np.sin(t)
        rec += np.interp(r, roffs, filtered[:, k], left=0.0, right=0.0)
    rec *= np.pi / (2 * len(sino.angles))
    return np.clip(rec, 0.0, None)
