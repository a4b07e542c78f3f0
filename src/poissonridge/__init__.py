"""Ridgelet-domain Poisson denoising.

Discrete Radon transforms (a recursive digital-line variant and a
rotation-based variant), per-projection orthonormal wavelets (Haar,
db2), moment-matched scaled-Poisson-difference noise models, adaptive
soft thresholding, and a Monte-Carlo harness that verifies the
propagated statistics.
"""

from .config import ConfigError, RunConfig, load_config, parse_config
from .fileio import (read_csv, read_pgm, read_sinogram, write_csv, write_pgm,
                     write_sinogram)
from .harness import (DistReport, LineFit, run_distribution_experiment,
                      variance_vs_intensity)
from .metrics import mse, psnr, ssim_global
from .phantoms import Bar, Disk, PhantomSpec, make_phantom, sample_poisson
from .radon import (Sinogram, TransformConfig, drt_gdb, drt_rotation,
                    fbp_invert, propagate_intensity)
from .ridgelet import DenoiseConfig, DenoiseResult, denoise, denoise_full
from .seeding import derive_rng, derive_seed_sequence
from .shrinkage import (BandNoiseModel, ThresholdPolicy, estimate_band_noise,
                        select_threshold, soft_threshold, threshold_grid)
from .spd import SpdParams, moment_match, spd_pmf, wavelet_coeff_dist
from .svgplot import emit_scatter_svg
from .wavelet import (WaveletPyramid, WaveletSpec, approximation_chain,
                      dwt_forward, dwt_inverse, lowpass_gain, wavelet_atom)

__version__ = "0.1.0"

__all__ = [
    "Bar", "BandNoiseModel", "ConfigError", "DenoiseConfig",
    "DenoiseResult", "Disk", "DistReport", "LineFit", "PhantomSpec",
    "RunConfig", "Sinogram", "SpdParams",
    "ThresholdPolicy", "TransformConfig", "WaveletPyramid", "WaveletSpec",
    "approximation_chain", "denoise", "denoise_full", "derive_rng",
    "derive_seed_sequence", "drt_gdb", "drt_rotation", "dwt_forward",
    "dwt_inverse", "emit_scatter_svg", "estimate_band_noise", "fbp_invert",
    "load_config", "lowpass_gain", "make_phantom", "moment_match", "mse",
    "parse_config", "propagate_intensity", "psnr", "read_csv", "read_pgm",
    "read_sinogram", "run_distribution_experiment", "sample_poisson",
    "select_threshold", "soft_threshold",
    "spd_pmf", "ssim_global",
    "threshold_grid", "variance_vs_intensity",
    "wavelet_atom", "wavelet_coeff_dist", "write_csv", "write_pgm",
    "write_sinogram",
]
