"""The benchmark's workloads: inputs, the op, and the checks on its output.

Each workload is built from the public API only. Op ``i`` of a run with
workload seed ``seed`` draws its inputs from
``derive_rng(seed, "bench-<workload>", i)``; the library sees only the
generated arrays (or, for ``verify-dist``, the phantom spec and a seed).
"""

import hashlib
import math

import numpy as np

# The reference outputs in reference.npz are op 0 of this seed.
CHECK_SEED = 0
# Outputs may drift from the recorded reference by this much, relative to
# the reference's largest magnitude.
REFERENCE_RTOL = 1e-10


def _array_problems(name, arr, shape, nonnegative=True):
    arr = np.asarray(arr)
    if arr.shape != shape:
        return [f"{name} has shape {arr.shape}, expected {shape}"]
    if not np.all(np.isfinite(arr)):
        return [f"{name} has non-finite values"]
    if nonnegative and arr.min() < 0:
        return [f"{name} has negative value {arr.min()!r}"]
    return []


def _relative_error(values, reference, scale):
    values = np.asarray(values, dtype=float)
    if values.shape != reference.shape:
        return math.inf
    return float(np.max(np.abs(values - reference) / scale))


class _Denoise:
    """One op: ``denoise(counts, cfg)`` on a fresh Poisson draw of a phantom."""

    units = 1

    def make_input(self, pr, seed, index):
        return pr.sample_poisson(
            self.intensity, pr.derive_rng(seed, f"bench-{self.name}", index))

    def run(self, pr, counts):
        return pr.denoise(counts, self.config)

    def problems(self, output):
        return _array_problems("estimate", output, self.intensity.shape)

    def quality(self, pr, counts, output):
        gain = pr.psnr(output, self.intensity) - pr.psnr(counts, self.intensity)
        return {"psnr_gain_db": gain}

    def digest(self, output):
        return hashlib.sha256(np.ascontiguousarray(output).tobytes()).hexdigest()

    def reference_values(self, output):
        return np.asarray(output, dtype=float)

    def reference_error(self, output, reference):
        """Largest deviation relative to the reference's largest pixel."""
        return _relative_error(output, reference, np.max(np.abs(reference)))


class DenoiseImage(_Denoise):
    """128x128 inhomogeneous phantom, rotation/area Radon, 3-level Haar."""

    name = "denoise-image"
    unit = "images"

    def __init__(self, pr):
        self.intensity = pr.make_phantom(pr.PhantomSpec(
            kind="inhomogeneous", size=128, background_intensity=0.5,
            structure_gain=10.0))
        self.config = pr.DenoiseConfig(
            transform=pr.TransformConfig("rotation", 180, "area"),
            wavelet=pr.WaveletSpec("haar", 3, "undecimated"),
            policy=pr.ThresholdPolicy(selector="sure"))


class DenoiseSinogram(_Denoise):
    """The ``pet`` preset: a 185x128 synthetic sinogram denoised in place."""

    name = "denoise-sinogram"
    unit = "sinograms"

    def __init__(self, pr):
        # spelled out rather than read from the preset, so that a change
        # to the preset cannot silently change the workload
        self.intensity = pr.make_phantom(pr.PhantomSpec(
            kind="synthetic-sinogram", size=128, background_intensity=255.0))
        self.config = pr.DenoiseConfig(
            wavelet=pr.WaveletSpec("haar", 3, "undecimated"),
            policy=pr.ThresholdPolicy(selector="sure"),
            entry="sinogram")


class VerifyDist:
    """One op: a 500-sample Monte-Carlo check of the exact-Poisson gdb path."""

    name = "verify-dist"
    unit = "MC samples"
    samples = 500
    units = samples
    # gdb on a 32 px image: 2n-1 offsets by 4n slopes
    radon_shape = (63, 128)
    bands = 4   # radon, two detail levels, approximation

    def __init__(self, pr):
        self.spec = pr.PhantomSpec(kind="inhomogeneous", size=32,
                                   background_intensity=0.5,
                                   structure_gain=10.0)
        self.transform = pr.TransformConfig("gdb")
        self.wavelet = pr.WaveletSpec("haar", 2, "undecimated")

    def make_input(self, pr, seed, index):
        rng = pr.derive_rng(seed, f"bench-{self.name}", index)
        return int(rng.integers(2 ** 31))

    def run(self, pr, mc_seed):
        return pr.run_distribution_experiment(
            self.spec, self.transform, samples=self.samples, seed=mc_seed,
            wavelet=self.wavelet, gof=True)

    def problems(self, reports):
        if len(reports) != self.bands:
            return [f"{len(reports)} band reports, expected {self.bands}"]
        radon = reports[0]
        found = _array_problems("radon mean", radon.empirical_mean,
                                self.radon_shape)
        for r in reports:
            found += _array_problems(f"{r.band} {r.level} variance",
                                     r.empirical_variance, self.radon_shape)
            found += _array_problems(f"{r.band} {r.level} mean",
                                     r.empirical_mean, self.radon_shape,
                                     nonnegative=False)
        if radon.gof_tested <= 0:
            found.append("no coefficient was GOF-tested")
        elif not 0.0 <= radon.gof_pass_fraction <= 1.0:
            found.append(f"gof_pass_fraction {radon.gof_pass_fraction!r}")
        if not math.isfinite(radon.mean_var_ratio):
            found.append(f"mean_var_ratio {radon.mean_var_ratio!r}")
        return found

    def quality(self, pr, mc_seed, reports):
        radon = reports[0]
        return {"gof_pass_fraction": radon.gof_pass_fraction,
                "mean_var_ratio_err": abs(radon.mean_var_ratio - 1.0)}

    def digest(self, reports):
        h = hashlib.sha256()
        for r in reports:
            h.update(np.ascontiguousarray(r.empirical_mean).tobytes())
            h.update(np.ascontiguousarray(r.empirical_variance).tobytes())
            h.update(repr((r.mean_var_ratio, r.gof_pass_fraction,
                           r.gof_tested)).encode())
        return h.hexdigest()

    def reference_values(self, reports):
        radon = reports[0]
        return np.array([radon.gof_tested, radon.gof_pass_fraction,
                         radon.mean_var_ratio], dtype=float)

    def reference_error(self, reports, reference):
        """Largest deviation of a report field relative to that field."""
        return _relative_error(self.reference_values(reports), reference,
                               np.abs(reference))


WORKLOADS = {w.name: w for w in (DenoiseImage, DenoiseSinogram, VerifyDist)}


def reference_problems(workload, output, reference):
    """Compare the output of op 0 of CHECK_SEED with the recorded one."""
    err = workload.reference_error(output, reference)
    if err > REFERENCE_RTOL:
        return [f"output differs from the recorded reference by {err:.3g} "
                f"relative (allowed {REFERENCE_RTOL:g})"]
    return []
