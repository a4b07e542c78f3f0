"""Ridgelet analysis: 1-D wavelets along the offset axis of a sinogram.

The forward transform composes a discrete Radon transform with a 1-D
wavelet transform of every projection; the inverse runs the wavelet
synthesis and filtered backprojection. Denoising shrinks the detail
bands between the two, using the Radon-domain Poisson structure to set
per-band noise levels.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .phantoms import _nonnegative_grid
# drt_rotation is not called here (propagate_intensity projects); the
# name stays bound because bench/selftest.py checks through it that the
# benchmark tracer also wraps names re-exported into other modules.
from .radon import Sinogram, TransformConfig, _check_column_wavelet, \
    _column_length, drt_rotation, fbp_invert, \
    propagate_intensity  # noqa: F401
from .shrinkage import ThresholdPolicy, apply_shrinkage, estimate_band_noise, \
    select_pyramid_thresholds
from .wavelet import WaveletPyramid, WaveletSpec, _analysis_cascade, \
    _check_length, dwt_forward, dwt_inverse

__all__ = [
    "RidgeletCoeffs",
    "DenoiseConfig",
    "DenoiseResult",
    "ridgelet_forward",
    "ridgelet_inverse",
    "denoise",
    "denoise_full",
]

_ENTRIES = ("image", "sinogram")


@dataclass
class RidgeletCoeffs:
    """Per-projection wavelet pyramids, stored column-wise.

    pyramid bands have shape (band_length, n_projections): column c is
    the pyramid of projection c. sinogram is the Radon transform the
    pyramid was taken of; its geometry (variant, image shape, angles,
    interp) is what the inverse rebuilds the grid from.
    """

    pyramid: WaveletPyramid
    sinogram: Sinogram

    def projection_pyramid(self, column):
        """View of one projection's pyramid (1-D bands)."""
        return WaveletPyramid(
            approximation=self.pyramid.approximation[:, column],
            details=[d[:, column] for d in self.pyramid.details],
            spec=self.pyramid.spec,
            original_length=self.pyramid.original_length,
        )


@dataclass
class DenoiseConfig:
    """End-to-end pipeline settings.

    entry selects what the input array is: ``"image"`` (counts on the
    pixel grid; the pipeline runs the Radon transform first and finishes
    with filtered backprojection) or ``"sinogram"`` (counts already on a
    sinogram grid, denoised in place along the offset axis with no
    transform or backprojection). clamp_negative zeroes negative pixels
    of the final estimate; with it off, image mode returns the raw
    filtered backprojection, negative lobes included.
    """

    transform: TransformConfig = field(
        default_factory=lambda: TransformConfig(variant="rotation", angles=180,
                                                interp="area"))
    wavelet: WaveletSpec = field(
        default_factory=lambda: WaveletSpec("haar", levels=1, mode="undecimated"))
    policy: ThresholdPolicy = field(default_factory=ThresholdPolicy)
    entry: str = "image"
    clamp_negative: bool = True

    def __post_init__(self):
        if self.entry not in _ENTRIES:
            raise ValueError(f"unknown entry mode {self.entry!r}")


@dataclass
class DenoiseResult:
    """Denoised estimate plus the knobs the run actually used."""

    image: np.ndarray
    thresholds: list
    noisy_sinogram: np.ndarray
    denoised_sinogram: np.ndarray


def ridgelet_forward(image, config):
    """Radon transform then per-projection wavelets.

    Parameters
    ----------
    image : ndarray
        2-D image of non-negative counts or rates; a stack of images,
        negative values or a wavelet that cannot analyze the image's
        Radon columns raise ValueError before anything is projected.
    config : DenoiseConfig
        Its transform and wavelet fields are used.
    """
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ValueError(f"image must be 2-D, got shape {image.shape}")
    _check_column_wavelet(config.wavelet)
    _check_length(_column_length(image.shape, config.transform), config.wavelet)
    sino = propagate_intensity(image, config.transform)
    return RidgeletCoeffs(pyramid=dwt_forward(sino.data, config.wavelet),
                          sinogram=sino)


def ridgelet_inverse(coeffs):
    """Wavelet synthesis then filtered backprojection.

    Returns the raw backprojection, negative values included. Only
    rotation-variant coefficients can be backprojected; gdb
    coefficients raise the fbp error.
    """
    return fbp_invert(replace(coeffs.sinogram,
                              data=dwt_inverse(coeffs.pyramid)))


def _shrink_columns(counts, wavelet, policy, reference=None):
    """Shrink detail bands of column signals; returns (estimate, taus)."""
    counts = np.asarray(counts, dtype=float)
    pyr, approxes = _analysis_cascade(counts, wavelet)
    noise = [estimate_band_noise(d, a, wavelet, level)
             for level, (d, a) in enumerate(zip(pyr.details, approxes), start=1)]
    ref_pyr = None
    if reference is not None:
        ref_pyr = dwt_forward(np.asarray(reference, dtype=float), wavelet)
    taus = select_pyramid_thresholds(pyr, policy, noise, ref_pyr)
    shrunk = apply_shrinkage(pyr, policy, noise, ref_pyr, thresholds=taus)
    return dwt_inverse(shrunk), taus


def denoise_full(noisy, config, reference=None):
    """Denoise and keep the intermediate products.

    Parameters
    ----------
    noisy : ndarray
        Counts: pixel grid in image mode, sinogram grid in sinogram mode.
    config : DenoiseConfig
    reference : ndarray, optional
        The noiseless rate image (image mode) or rate sinogram (sinogram
        mode); required by the oracle-erm selector.

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
    if config.policy.selector == "oracle-erm" and reference is None:
        raise ValueError("oracle-erm selection requires a reference image")
    if config.entry == "sinogram":
        _check_length(noisy.shape[0], config.wavelet)
        est, taus = _shrink_columns(noisy, config.wavelet, config.policy,
                                    reference)
        if config.clamp_negative:
            est = np.clip(est, 0.0, None)
        return DenoiseResult(image=est, thresholds=taus,
                             noisy_sinogram=noisy.copy(),
                             denoised_sinogram=est.copy())
    if config.transform.variant != "rotation":
        raise ValueError(
            f"image entry needs the rotation variant, got "
            f"{config.transform.variant!r}: only rotation sinograms can be "
            f"backprojected; denoise gdb data with entry = sinogram")
    _check_column_wavelet(config.wavelet)
    _check_length(_column_length(noisy.shape, config.transform), config.wavelet)
    if reference is None:
        sino, ref_data = propagate_intensity(noisy, config.transform), None
    else:
        # one projection of both; a stack entry is bit-identical to the
        # image projected alone
        pair = propagate_intensity(np.stack([noisy, reference], axis=-1),
                                   config.transform)
        noisy_data, ref_data = np.moveaxis(pair.data, -1, 0).copy()
        sino = replace(pair, data=noisy_data)
    est_data, taus = _shrink_columns(sino.data, config.wavelet, config.policy,
                                     ref_data)
    image = fbp_invert(replace(sino, data=est_data))
    if config.clamp_negative:
        image = np.clip(image, 0.0, None)
    return DenoiseResult(image=image, thresholds=taus,
                         noisy_sinogram=sino.data,
                         denoised_sinogram=est_data)


def denoise(noisy, config, reference=None):
    """Denoised rate estimate; see denoise_full for the knobs kept."""
    return denoise_full(noisy, config, reference).image
