"""Adaptive soft thresholding of detail bands.

Thresholds are chosen per band on a grid of multiples of the band noise
scale, either by oracle empirical risk (when the clean coefficients are
available) or by a Gaussian-approximation unbiased risk estimate that
only needs the per-coefficient variance predictions. The oracle scores
each grid point by its direct squared error. The risk estimate scores
the whole grid in O(n) per band, with no sort: each coefficient
magnitude is placed in its grid bucket arithmetically and the risk
terms are summed per bucket. Approximation coefficients are never
shrunk.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .wavelet import lowpass_gain

__all__ = [
    "BandNoiseModel",
    "ThresholdPolicy",
    "soft_threshold",
    "estimate_band_noise",
    "select_threshold",
    "threshold_grid",
]


def soft_threshold(w, tau):
    """Shrink toward zero: sign(w) * max(|w| - tau, 0); tau >= 0, not NaN."""
    if not tau >= 0:
        raise ValueError(f"threshold must be >= 0, got {tau}")
    w = np.asarray(w, dtype=float)
    return np.sign(w) * np.maximum(np.abs(w) - tau, 0.0)


@dataclass
class BandNoiseModel:
    """Per-coefficient variance prediction for one detail band.

    scale is sqrt of the median predicted variance (0 for an empty band)
    and sets the unit of this band's threshold grid.
    """

    variances: np.ndarray
    scale: float


@dataclass
class ThresholdPolicy:
    """Selector choice and threshold grid layout.

    grid runs from 0 to grid_max times the band noise scale in
    grid_points steps. Every detail band, one per decomposition level
    (coefficients pooled across the projection batch), gets its own
    threshold. The fixed selector bypasses selection:
    tau = fixed_scale * scale.
    """

    selector: str = "sure"
    grid_points: int = 51
    grid_max: float = 5.0
    fixed_scale: float = 3.0

    def __post_init__(self):
        if self.selector not in ("oracle-erm", "sure", "fixed"):
            raise ValueError(f"unknown selector {self.selector!r}")
        if not isinstance(self.grid_points, numbers.Integral):
            raise ValueError(
                f"grid_points must be an integer, got {self.grid_points!r}")
        if self.grid_points < 2:
            raise ValueError(f"grid_points must be >= 2, got {self.grid_points}")
        if not (math.isfinite(self.grid_max) and self.grid_max > 0):
            raise ValueError(
                f"grid_max must be finite and > 0, got {self.grid_max}")
        if not (math.isfinite(self.fixed_scale) and self.fixed_scale >= 0):
            raise ValueError(
                f"fixed_scale must be finite and >= 0, got {self.fixed_scale}")


def estimate_band_noise(band, approx, spec, level):
    """Predict detail-coefficient noise from co-located approximations.

    The same-level approximation coefficients, clamped to zero and
    rescaled by the lowpass gain, estimate the local Radon-domain rate.
    A detail coefficient of rate-lam Poisson counts has variance
    lam * sum psi^2, and every filter in wavelet.FILTERS is orthonormal
    (tests/test_wavelet.py::test_registered_filters_are_orthonormal), so
    sum psi^2 = 1 at every level in both modes and the predicted
    variance is the rate itself.

    Parameters
    ----------
    band, approx : ndarray
        Same-shape detail and approximation coefficients at this level.
    spec : WaveletSpec
    level : int
        1-based level of the band, an integer in 1..spec.levels.

    Returns
    -------
    BandNoiseModel
    """
    gain = lowpass_gain(spec, level)
    band = np.asarray(band, dtype=float)
    approx = np.asarray(approx, dtype=float)
    if band.shape != approx.shape:
        raise ValueError(
            f"band and approximation must be co-located, got shapes "
            f"{band.shape} and {approx.shape}")
    variances = np.clip(approx, 0.0, None) / gain
    med = float(np.median(variances)) if variances.size else 0.0
    return BandNoiseModel(variances=variances,
                          scale=float(np.sqrt(med)))


def threshold_grid(policy, scale):
    """Candidate thresholds: 0 .. grid_max * scale."""
    return np.linspace(0.0, policy.grid_max * scale, policy.grid_points)


def select_threshold(band, noise, policy, reference=None):
    """Pick one threshold for a detail band.

    oracle-erm minimizes the exact squared error against the reference
    coefficients; sure minimizes
    sum_i [ v_i (1 - 2 * 1{|w_i| <= tau}) + min(w_i^2, tau^2) ],
    the Gaussian-approximation unbiased risk estimate with
    per-coefficient variances v_i. Ties break toward the smaller tau.

    oracle-erm scores each grid point with the direct sum of
    (soft(w, tau) - reference)^2. sure neither sorts nor builds a
    grid-by-band matrix. Each |w_i| falls in the bucket
    b_i = #{j : grid_j < |w_i|}, so |w_i| <= grid_j exactly when
    b_i <= j, and per-bucket sums (np.bincount) cumulated over the grid
    give every grid risk in O(n):
    risk_j = sum v - 2 V_j + W_j + grid_j^2 (n - K_j) with K_j, V_j and
    W_j the count, sum of v and sum of w^2 over buckets 0..j (the
    SureShrink form of Donoho and Johnstone, JASA 1995).

    Raises ValueError if the noise scale is not finite and >= 0, if the
    band, the variances (sure) or the reference (oracle-erm) hold NaN or
    +-inf, or if the latter two do not match the band's size.
    """
    if not (math.isfinite(noise.scale) and noise.scale >= 0):
        raise ValueError(
            f"noise scale must be finite and >= 0, got {noise.scale}")
    w = _finite_values(band, "band")
    if w.size == 0:
        return 0.0
    if policy.selector == "fixed":
        return float(policy.fixed_scale * noise.scale)
    # one value per coefficient: the clean reference or the variance
    if policy.selector == "oracle-erm":
        if reference is None:
            raise ValueError("oracle-erm selection requires reference coefficients")
        paired = _finite_values(reference, "reference", w.shape)
    else:
        paired = _finite_values(noise.variances, "variance", w.shape)
    grid = threshold_grid(policy, noise.scale)
    if grid[-1] == 0.0:
        return 0.0
    if policy.selector == "oracle-erm":
        risks = [((soft_threshold(w, tau) - paired) ** 2).sum() for tau in grid]
    else:
        risks = _sure_risks(w, paired, grid)
    return float(grid[int(np.argmin(risks))])


def _finite_values(values, name, shape=None):
    arr = np.asarray(values, dtype=float).ravel()
    if shape is not None and arr.shape != shape:
        raise ValueError(
            f"{name} shape {arr.shape} does not match band {shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} holds non-finite values (NaN or inf)")
    return arr


def _grid_buckets(magnitude, grid):
    """b_i = #{j : grid_j < magnitude_i}, as searchsorted(side="left").

    grid is linspace(0, top, P) with top > 0. ceil(m / step) lands on the
    count or one step either side of it (the quotient and the grid
    points both round), and one comparison with grid itself in each
    direction makes it exact.
    """
    points = grid.size
    b = np.ceil(magnitude / (grid[-1] / (points - 1)))
    np.clip(b, 0, points, out=b)
    b = b.astype(np.intp)
    # fenced[b] is grid[b - 1], fenced[b + 1] is grid[b]
    fenced = np.concatenate(([-np.inf], grid, [np.inf]))
    b -= fenced[b] >= magnitude
    b += fenced[b + 1] < magnitude
    return b


def _bucket_prefix(b, weights, points):
    """Sums of weights over buckets 0..j for every grid index j."""
    return np.cumsum(np.bincount(b, weights, minlength=points + 1))[:points]


def _sure_risks(w, v, grid):
    """SURE at every grid threshold, from per-bucket sums of 1, v and w^2."""
    b = _grid_buckets(np.abs(w), grid)
    k = _bucket_prefix(b, None, grid.size)
    cv = _bucket_prefix(b, v, grid.size)
    cw = _bucket_prefix(b, w * w, grid.size)
    return v.sum() - 2.0 * cv + cw + grid ** 2 * (w.size - k)

