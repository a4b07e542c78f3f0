"""Image fidelity metrics against a noiseless reference."""

import numpy as np

__all__ = ["mse", "psnr", "ssim_global"]


def _pair(x, ref):
    x = np.asarray(x, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if x.shape != ref.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {ref.shape}")
    if x.size == 0:
        raise ValueError(f"cannot compare empty arrays of shape {x.shape}")
    for name, arr in (("input", x), ("reference", ref)):
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} holds NaN or infinite values")
    return x, ref


def _positive_scale(value, name):
    """value as a float; ValueError unless positive and finite."""
    value = float(value)
    if not 0.0 < value < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return value


def mse(x, ref):
    x, ref = _pair(x, ref)
    return float(np.mean((x - ref) ** 2))


def psnr(x, ref, peak=None):
    """Peak signal-to-noise ratio in dB.

    peak defaults to the maximum of the reference. A zero-error input
    returns +inf.
    """
    x, ref = _pair(x, ref)
    peak = _positive_scale(ref.max() if peak is None else peak, "peak")
    err = mse(x, ref)
    if err == 0.0:
        return float("inf")
    return float(10.0 * np.log10(peak * peak / err))


def ssim_global(x, ref, data_range=None):
    """Single-statistic structural similarity over the whole image.

    Luminance, contrast and structure terms are computed once from
    global moments (population statistics) and multiplied. data_range
    defaults to the reference maximum.
    """
    x, ref = _pair(x, ref)
    data_range = _positive_scale(ref.max() if data_range is None
                                 else data_range, "data_range")
    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2
    c3 = c2 / 2.0

    mu_x = x.mean()
    mu_r = ref.mean()
    var_x = x.var()
    var_r = ref.var()
    cov = ((x - mu_x) * (ref - mu_r)).mean()
    sd_x = np.sqrt(var_x)
    sd_r = np.sqrt(var_r)

    lum = (2 * mu_x * mu_r + c1) / (mu_x ** 2 + mu_r ** 2 + c1)
    con = (2 * sd_x * sd_r + c2) / (var_x + var_r + c2)
    stru = (cov + c3) / (sd_x * sd_r + c3)
    return float(lum * con * stru)
