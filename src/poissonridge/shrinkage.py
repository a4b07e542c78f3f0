"""Adaptive soft thresholding of detail bands.

Thresholds are chosen per band on a grid of multiples of the band noise
scale, either by oracle empirical risk (when the clean coefficients are
available) or by a Gaussian-approximation unbiased risk estimate that
only needs the per-coefficient variance predictions. Approximation
coefficients are never shrunk.
"""

from dataclasses import dataclass

import numpy as np

from .wavelet import WaveletPyramid, lowpass_gain

__all__ = [
    "BandNoiseModel",
    "ThresholdPolicy",
    "soft_threshold",
    "estimate_band_noise",
    "select_threshold",
    "select_pyramid_thresholds",
    "apply_shrinkage",
]


def soft_threshold(w, tau):
    """Shrink toward zero: sign(w) * max(|w| - tau, 0)."""
    if tau < 0:
        raise ValueError(f"threshold must be >= 0, got {tau}")
    w = np.asarray(w, dtype=float)
    return np.sign(w) * np.maximum(np.abs(w) - tau, 0.0)


@dataclass
class BandNoiseModel:
    """Per-coefficient variance prediction for one detail band.

    scale is sqrt of the median predicted variance and sets the unit of
    the threshold grid.
    """

    variances: np.ndarray
    scale: float


@dataclass
class ThresholdPolicy:
    """Selector choice and threshold grid layout.

    grid runs from 0 to grid_max times the band noise scale in
    grid_points steps. per_band selects one threshold per decomposition
    level (coefficients pooled across the projection batch); when False
    a single threshold is selected for all detail bands jointly.
    The fixed selector bypasses selection: tau = fixed_scale * scale.
    """

    selector: str = "sure"
    grid_points: int = 51
    grid_max: float = 5.0
    per_band: bool = True
    fixed_scale: float = 3.0

    def __post_init__(self):
        aliases = {"sure-gaussian-approx": "sure", "oracle": "oracle-erm"}
        self.selector = aliases.get(self.selector, self.selector)
        if self.selector not in ("oracle-erm", "sure", "fixed"):
            raise ValueError(f"unknown selector {self.selector!r}")
        if self.grid_points < 2:
            raise ValueError(f"grid_points must be >= 2, got {self.grid_points}")
        if self.grid_max <= 0:
            raise ValueError(f"grid_max must be > 0, got {self.grid_max}")


def estimate_band_noise(band, approx, spec, level):
    """Predict detail-coefficient noise from co-located approximations.

    The same-level approximation coefficients, clamped to zero and
    rescaled by the lowpass gain, estimate the local Radon-domain rate.
    A detail coefficient of rate-lam Poisson counts has variance
    lam * sum psi^2, and every filter in wavelet.FILTERS is orthonormal,
    so sum psi^2 = 1 at every level in both modes and the predicted
    variance is the rate itself.

    Parameters
    ----------
    band, approx : ndarray
        Same-shape detail and approximation coefficients at this level.
    spec : WaveletSpec
    level : int
        1-based level of the band.

    Returns
    -------
    BandNoiseModel
    """
    band = np.asarray(band, dtype=float)
    approx = np.asarray(approx, dtype=float)
    if band.shape != approx.shape:
        raise ValueError(
            f"band and approximation must be co-located, got shapes "
            f"{band.shape} and {approx.shape}")
    variances = np.clip(approx, 0.0, None) / lowpass_gain(spec, level)
    med = float(np.median(variances)) if variances.size else 0.0
    return BandNoiseModel(variances=variances, scale=float(np.sqrt(max(med, 0.0))))


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

    sure needs no risk matrix: with |w| sorted ascending, the prefix sums
    cv of v and cw of w^2 (each led by 0), and k = #{|w_i| <= tau},
    risk(tau) = sum v - 2 cv[k] + cw[k] + tau^2 (n - k), so the whole
    grid costs one O(n log n) sort (the SureShrink form of Donoho and
    Johnstone, JASA 1995). oracle-erm evaluates every grid point directly.
    """
    w = np.asarray(band, dtype=float).ravel()
    if w.size == 0:
        return 0.0
    if policy.selector == "fixed":
        return float(policy.fixed_scale * noise.scale)
    grid = threshold_grid(policy, noise.scale)
    if grid[-1] == 0.0:
        return 0.0
    if policy.selector == "oracle-erm":
        if reference is None:
            raise ValueError("oracle-erm selection requires reference coefficients")
        ref = np.asarray(reference, dtype=float).ravel()
        if ref.shape != w.shape:
            raise ValueError(
                f"reference shape {ref.shape} does not match band {w.shape}")
        shrunk = np.sign(w)[None, :] * np.maximum(
            np.abs(w)[None, :] - grid[:, None], 0.0)
        risks = ((shrunk - ref[None, :]) ** 2).sum(axis=1)
        return float(grid[int(np.argmin(risks))])
    v = np.asarray(noise.variances, dtype=float).ravel()
    if v.shape != w.shape:
        raise ValueError(
            f"variance shape {v.shape} does not match band {w.shape}")
    risks = _sure_risks(w, v, grid)
    return float(grid[int(np.argmin(risks))])


def _sure_risks(w, v, grid):
    """SURE at every grid threshold, from prefix sums over sorted |w|."""
    magnitude = np.abs(w)
    order = np.argsort(magnitude, kind="stable")
    cv = np.concatenate(([0.0], np.cumsum(v[order])))
    cw = np.concatenate(([0.0], np.cumsum(w[order] ** 2)))
    k = np.searchsorted(magnitude[order], grid, side="right")
    return cv[-1] - 2.0 * cv[k] + cw[k] + grid ** 2 * (w.size - k)


def select_pyramid_thresholds(pyramid, policy, noise_models, reference=None):
    """One threshold per detail band (or one shared, per policy).

    noise_models is a list of BandNoiseModel, finest level first, and
    reference (optional) a pyramid of clean coefficients.
    """
    details = pyramid.details
    if len(noise_models) != len(details):
        raise ValueError(
            f"need one noise model per detail band: got {len(noise_models)} "
            f"for {len(details)} bands")
    refs = reference.details if reference is not None else [None] * len(details)
    if policy.per_band:
        return [select_threshold(d, nm, policy, r)
                for d, nm, r in zip(details, noise_models, refs)]
    # pooled: a single tau across every detail coefficient
    w = np.concatenate([np.asarray(d, dtype=float).ravel() for d in details])
    v = np.concatenate([np.asarray(nm.variances, dtype=float).ravel()
                        for nm in noise_models])
    med = float(np.median(v)) if v.size else 0.0
    pooled_noise = BandNoiseModel(variances=v, scale=float(np.sqrt(max(med, 0.0))))
    pooled_ref = None
    if reference is not None:
        pooled_ref = np.concatenate(
            [np.asarray(r, dtype=float).ravel() for r in refs])
    tau = select_threshold(w, pooled_noise, policy, pooled_ref)
    return [tau] * len(details)


def apply_shrinkage(pyramid, policy, noise_models, reference=None, thresholds=None):
    """Soft-threshold every detail band; approximation passes untouched.

    thresholds may carry precomputed per-band values (e.g. from
    select_pyramid_thresholds, so a report can log them); otherwise they
    are selected here.
    """
    if thresholds is None:
        thresholds = select_pyramid_thresholds(pyramid, policy, noise_models,
                                               reference)
    if len(thresholds) != len(pyramid.details):
        raise ValueError(
            f"need one threshold per detail band: got {len(thresholds)} "
            f"for {len(pyramid.details)} bands")
    details = [soft_threshold(d, t) for d, t in zip(pyramid.details, thresholds)]
    return WaveletPyramid(
        approximation=np.asarray(pyramid.approximation, dtype=float).copy(),
        details=details,
        spec=pyramid.spec,
        original_length=pyramid.original_length,
    )
