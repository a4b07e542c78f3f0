"""Intensity phantoms and Poisson count sampling.

An intensity image is a 2-D float array of non-negative per-pixel Poisson
rates. Counts are drawn independently per pixel, so the per-pixel
signal-to-noise ratio is sqrt(rate).
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .radon import _nonnegative_grid, drt_rotation
from .seeding import derive_rng

__all__ = [
    "Disk",
    "Bar",
    "PhantomSpec",
    "make_phantom",
    "sample_poisson",
]


@dataclass(frozen=True)
class Disk:
    """Filled disk; center and radius are fractions of the image size."""

    cx: float
    cy: float
    radius: float


@dataclass(frozen=True)
class Bar:
    """Axis-aligned filled rectangle; corner and extents are fractions."""

    x: float
    y: float
    width: float
    height: float


_KINDS = ("homogeneous", "inhomogeneous", "synthetic-sinogram")


@dataclass(frozen=True)
class PhantomSpec:
    """Recipe for a reference intensity image.

    Construction checks every field; for the inhomogeneous kind each
    structure must be a Disk or a Bar lying inside the grid.

    Attributes
    ----------
    kind : str
        ``"homogeneous"``, ``"inhomogeneous"`` or ``"synthetic-sinogram"``.
    size : int
        Square grid edge in pixels, an integer >= 1 (for the sinogram
        kind, >= 2 and the source head-phantom edge; the output then has
        the detector geometry).
    background_intensity : float
        Poisson rate of the background, finite and >= 0. For the sinogram
        kind it is the sinogram's peak rate.
    structure_gain : float
        Structures are filled at gain x background; finite and >= 0.
    structures : tuple of Disk | Bar
        Shapes for the inhomogeneous kind, in fraction-of-size units.
    """

    kind: str = "homogeneous"
    size: int = 64
    background_intensity: float = 0.05
    structure_gain: float = 10.0
    # centered disk of radius size/8 plus an off-center bar size/16 x size/3
    structures: tuple = (Disk(0.5, 0.5, 0.125), Bar(0.70, 0.15, 0.0625, 1.0 / 3.0))

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown phantom kind {self.kind!r}; expected one of {_KINDS}")
        if not isinstance(self.size, numbers.Integral):
            raise ValueError(
                f"phantom size must be an integer, got {self.size!r}")
        least = 2 if self.kind == "synthetic-sinogram" else 1
        if self.size < least:
            raise ValueError(
                f"{self.kind} phantom size must be >= {least}, got {self.size}")
        for name in ("background_intensity", "structure_gain"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(
                    f"{name} must be finite and >= 0, got {value}")
        if self.kind == "inhomogeneous":
            _check_structures(self.structures, int(self.size))


def _check_structures(structures, size):
    for idx, shape in enumerate(structures):
        if isinstance(shape, Disk):
            cx, cy, r = shape.cx * size, shape.cy * size, shape.radius * size
            if cx - r < 0 or cy - r < 0 or cx + r > size or cy + r > size:
                raise ValueError(f"structure {idx} (disk) extends outside the image")
        elif isinstance(shape, Bar):
            x0, y0 = shape.x * size, shape.y * size
            x1, y1 = x0 + shape.width * size, y0 + shape.height * size
            if x0 < 0 or y0 < 0 or x1 > size or y1 > size:
                raise ValueError(f"structure {idx} (bar) extends outside the image")
        else:
            raise ValueError(f"structure {idx} has unknown type {type(shape)!r}")


# Standard piecewise-constant head phantom: intensity, semi-axes a/b,
# center x0/y0, rotation phi in degrees. Values sum to a non-negative map.
_HEAD_ELLIPSES = [
    (1.00, 0.6900, 0.9200, 0.00, 0.0000, 0.0),
    (-0.80, 0.6624, 0.8740, 0.00, -0.0184, 0.0),
    (-0.20, 0.1100, 0.3100, 0.22, 0.0000, -18.0),
    (-0.20, 0.1600, 0.4100, -0.22, 0.0000, 18.0),
    (0.10, 0.2100, 0.2500, 0.00, 0.3500, 0.0),
    (0.10, 0.0460, 0.0460, 0.00, 0.1000, 0.0),
    (0.10, 0.0460, 0.0460, 0.00, -0.1000, 0.0),
    (0.10, 0.0460, 0.0230, -0.08, -0.6050, 0.0),
    (0.10, 0.0230, 0.0230, 0.00, -0.6060, 0.0),
    (0.10, 0.0230, 0.0460, 0.06, -0.6050, 0.0),
]


def _head_phantom(size):
    y, x = np.mgrid[0:size, 0:size]
    # map pixel centers to [-1, 1]
    x = (2.0 * x - (size - 1)) / size
    y = (2.0 * y - (size - 1)) / size
    img = np.zeros((size, size))
    for inten, a, b, x0, y0, phi in _HEAD_ELLIPSES:
        t = np.deg2rad(phi)
        xr = (x - x0) * np.cos(t) + (y - y0) * np.sin(t)
        yr = -(x - x0) * np.sin(t) + (y - y0) * np.cos(t)
        img[(xr / a) ** 2 + (yr / b) ** 2 <= 1.0] += inten
    # the ellipse table is non-negative by construction; guard rounding
    return np.clip(img, 0.0, None)


def make_phantom(spec):
    """Build the reference intensity image described by spec.

    For ``"synthetic-sinogram"`` the output is the Radon transform of a
    piecewise-constant head phantom (rows = offsets, columns = angles,
    one angle per pixel of source edge), scaled so its peak equals
    ``background_intensity``. Sinogram pixel values are
    treated as the true underlying intensity function.

    Returns
    -------
    ndarray
        2-D float64 array of Poisson rates.
    """
    size = int(spec.size)
    lam = float(spec.background_intensity)

    if spec.kind == "homogeneous":
        return np.full((size, size), lam)

    if spec.kind == "inhomogeneous":
        img = np.full((size, size), lam)
        y, x = np.mgrid[0:size, 0:size]
        level = lam * float(spec.structure_gain)
        # the spec has checked every structure's type and bounds
        for shape in spec.structures:
            if isinstance(shape, Disk):
                cx, cy, r = shape.cx * size, shape.cy * size, shape.radius * size
                img[(x - cx) ** 2 + (y - cy) ** 2 <= r * r] = level
            else:
                x0, y0 = shape.x * size, shape.y * size
                x1, y1 = x0 + shape.width * size, y0 + shape.height * size
                img[(y >= y0) & (y < y1) & (x >= x0) & (x < x1)] = level
        return img

    # synthetic-sinogram, the one kind left
    head = _head_phantom(size)
    sino = drt_rotation(head, angles=size, interp="area")
    # dividing first makes the peak exactly 1.0, so the peak rate is lam
    return sino.data / sino.data.max() * lam


def sample_poisson(intensity, rng=None, seed=None):
    """Draw an independent Poisson count for every pixel.

    Parameters
    ----------
    intensity : ndarray
        Finite, non-negative 2-D rate image with no empty axis; anything
        else raises ValueError.
    rng : numpy.random.Generator, optional
        Stream to consume. Takes precedence over seed.
    seed : int, optional
        Convenience top-level seed; the stream is derived for the
        ``"sample-poisson"`` stage. Default 0 when both are omitted.

    Returns
    -------
    ndarray
        int64 counts, same shape as intensity.
    """
    lam = _nonnegative_grid(intensity, "intensity image", "rate")
    if rng is None:
        rng = derive_rng(0 if seed is None else seed, "sample-poisson")
    return rng.poisson(lam)
