"""Ridgelet denoising: 1-D wavelets along the offset axis of a sinogram.

denoise_full is the pipeline. In image mode it projects the counts with
propagate_intensity, runs a 1-D wavelet analysis of every projection,
soft-thresholds the detail bands at per-band noise levels set from the
Radon-domain Poisson structure, then runs the wavelet synthesis and
filtered backprojection and zeroes negative pixels. In sinogram mode it
shrinks the input's columns directly, with no transform. The bare
ridgelet transform is the composition of public calls:
``dwt_forward(propagate_intensity(image, transform).data, wavelet)``
forward, ``fbp_invert(replace(sino, data=dwt_inverse(pyramid)))`` back.
"""

from dataclasses import dataclass, field, replace

import numpy as np

# drt_rotation is not called here (propagate_intensity projects); the
# name stays bound because bench/selftest.py checks through it that the
# benchmark tracer also wraps names re-exported into other modules.
from .radon import TransformConfig, _check_column_wavelet, _column_length, \
    _nonnegative_grid, drt_rotation, fbp_invert, \
    propagate_intensity  # noqa: F401
from .shrinkage import ThresholdPolicy, estimate_band_noise, \
    select_threshold, soft_threshold
from .wavelet import WaveletSpec, _analysis_cascade, _check_length, \
    dwt_forward, dwt_inverse

__all__ = [
    "DenoiseConfig",
    "DenoiseResult",
    "denoise",
    "denoise_full",
]

_ENTRIES = ("image", "sinogram")


@dataclass
class DenoiseConfig:
    """End-to-end pipeline settings.

    entry selects what the input array is: ``"image"`` (counts on the
    pixel grid; the pipeline runs the Radon transform first and finishes
    with filtered backprojection) or ``"sinogram"`` (counts already on a
    sinogram grid, denoised in place along the offset axis with no
    transform or backprojection). Negative pixels of the final estimate
    are always zeroed; fbp_invert gives the raw backprojection.
    """

    transform: TransformConfig = field(
        default_factory=lambda: TransformConfig(interp="area"))
    wavelet: WaveletSpec = field(default_factory=WaveletSpec)
    policy: ThresholdPolicy = field(default_factory=ThresholdPolicy)
    entry: str = "image"

    def __post_init__(self):
        if self.entry not in _ENTRIES:
            raise ValueError(
                f"unknown entry mode {self.entry!r}; expected one of {_ENTRIES}")


@dataclass
class DenoiseResult:
    """Denoised estimate plus the knobs the run actually used."""

    image: np.ndarray
    thresholds: list
    noisy_sinogram: np.ndarray
    denoised_sinogram: np.ndarray


def _shrink_columns(counts, wavelet, policy, reference=None):
    """Shrink detail bands of column signals; returns (estimate, taus).

    One pass per level, finest first: the band's noise model from its
    co-located approximation (estimate_band_noise), its threshold
    selected on that band alone (select_threshold, against the same band
    of dwt_forward(reference) when a reference is given) and its soft
    threshold. The approximation is never shrunk.
    """
    pyr, approxes = _analysis_cascade(counts, wavelet)
    refs = ([None] * len(pyr.details) if reference is None
            else dwt_forward(reference, wavelet).details)
    details, taus = [], []
    for level, (band, approx, ref) in enumerate(
            zip(pyr.details, approxes, refs), start=1):
        noise = estimate_band_noise(band, approx, wavelet, level)
        tau = select_threshold(band, noise, policy, ref)
        details.append(soft_threshold(band, tau))
        taus.append(tau)
    return dwt_inverse(replace(pyr, details=details)), taus


def denoise_full(noisy, config, reference=None):
    """Denoise and keep the intermediate products.

    Parameters
    ----------
    noisy : ndarray
        Counts: pixel grid in image mode, sinogram grid in sinogram mode.
    config : DenoiseConfig
    reference : ndarray, optional
        The noiseless rate image (image mode) or rate sinogram (sinogram
        mode). It is validated under every selector, but only oracle-erm,
        which requires it, reads it: the other selectors neither project
        nor analyse it, and their result is the one without a reference.

    Returns
    -------
    DenoiseResult

    Raises
    ------
    ValueError
        Before any transform runs, if noisy or reference is not a finite,
        non-negative 2-D array, or if the two differ in shape; in
        sinogram mode also if the wavelet cannot analyze columns of
        noisy's height (an undecimated 2**levels above it, or a
        decimated 2**levels that does not divide it); in image mode
        also if the transform is not the rotation variant (only it can
        be backprojected), if the wavelet is decimated (Radon columns
        have odd length) or if an undecimated 2**levels exceeds the
        Radon column length.
    """
    noisy = _nonnegative_grid(noisy, "noisy counts", "count")
    if reference is not None:
        reference = _nonnegative_grid(reference, "reference", "rate")
        if reference.shape != noisy.shape:
            raise ValueError(
                f"reference shape {reference.shape} does not match noisy "
                f"counts {noisy.shape}")
    if config.policy.selector != "oracle-erm":
        reference = None
    elif reference is None:
        raise ValueError("oracle-erm selection requires a reference image")
    if config.entry == "sinogram":
        _check_length(noisy.shape[0], config.wavelet)
        est, taus = _shrink_columns(noisy, config.wavelet, config.policy,
                                    reference)
        est = np.clip(est, 0.0, None)
        # _nonnegative_grid hands back a float64 input itself: copy it
        return DenoiseResult(image=est, thresholds=taus,
                             noisy_sinogram=noisy.copy(),
                             denoised_sinogram=est)
    if config.transform.variant != "rotation":
        raise ValueError(
            f"image entry needs the rotation variant, got "
            f"{config.transform.variant!r}: only rotation sinograms can be "
            f"backprojected; denoise gdb data with entry = sinogram")
    _check_column_wavelet(config.wavelet)
    _check_length(_column_length(noisy.shape, config.transform), config.wavelet)
    sino = propagate_intensity(noisy, config.transform)
    ref_data = None
    if reference is not None:
        ref_data = propagate_intensity(reference, config.transform).data
    est_data, taus = _shrink_columns(sino.data, config.wavelet, config.policy,
                                     ref_data)
    image = np.clip(fbp_invert(replace(sino, data=est_data)), 0.0, None)
    return DenoiseResult(image=image, thresholds=taus,
                         noisy_sinogram=sino.data,
                         denoised_sinogram=est_data)


def denoise(noisy, config, reference=None):
    """Denoised rate estimate; see denoise_full for the knobs kept."""
    return denoise_full(noisy, config, reference).image
