import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poissonridge.ridgelet as ridgelet
import poissonridge.wavelet as wavelet
from poissonridge.config import ConfigError, parse_config
from poissonridge.metrics import mse
from poissonridge.phantoms import PhantomSpec, make_phantom, sample_poisson
from poissonridge.radon import (TransformConfig, drt_gdb, drt_rotation,
                                fbp_invert)
from poissonridge.ridgelet import DenoiseConfig, denoise, denoise_full
from poissonridge.shrinkage import (ThresholdPolicy, estimate_band_noise,
                                    select_threshold, soft_threshold)
from poissonridge.wavelet import (WaveletSpec, approximation_chain,
                                  dwt_forward, dwt_inverse)


def smooth_phantom(n, radius_frac=0.30, power=6):
    jj, ii = np.mgrid[0:n, 0:n]
    rho = np.hypot(ii - (n - 1) / 2, jj - (n - 1) / 2)
    return np.exp(-((rho / (radius_frac * n)) ** power))


def test_defaults_are_rotation_area_haar_undecimated():
    cfg = DenoiseConfig()
    assert cfg.transform.variant == "rotation"
    assert cfg.transform.angles == 180
    assert cfg.transform.interp == "area"
    assert cfg.wavelet == WaveletSpec("haar", 1, "undecimated")
    assert cfg.entry == "image"
    # negative pixels are always zeroed: there is no switch for it
    with pytest.raises(TypeError):
        DenoiseConfig(clamp_negative=False)


def test_entry_validation():
    with pytest.raises(ValueError):
        DenoiseConfig(entry="projections")
    # the config parser reports the library's message for the same entry
    with pytest.raises(ValueError) as lib:
        DenoiseConfig(entry="x")
    with pytest.raises(ConfigError,
                       match=rf"^line 1: entry: {re.escape(str(lib.value))}$"):
        parse_config("entry = x")


def test_sinogram_entry_soft_thresholds_details_at_returned_taus():
    # the estimate is the synthesis of the analysis with every detail
    # band soft-thresholded at its reported tau, approximation unchanged
    counts = np.random.default_rng(5).poisson(4.0, size=(32, 6))
    wavelet = WaveletSpec("haar", 3, "undecimated")
    cfg = DenoiseConfig(wavelet=wavelet, entry="sinogram",
                        policy=ThresholdPolicy(selector="fixed", fixed_scale=1.0))
    result = denoise_full(counts, cfg)
    taus = result.thresholds
    assert len(taus) == 3 and min(taus) > 0
    assert len(set(taus)) > 1
    pyr = dwt_forward(counts.astype(float), wavelet)
    shrunk = replace(pyr, details=[soft_threshold(d, tau)
                                   for d, tau in zip(pyr.details, taus)])
    assert np.array_equal(result.image,
                          np.clip(dwt_inverse(shrunk), 0.0, None))
    assert not np.array_equal(result.image, counts)


def test_oracle_selector_requires_reference():
    cfg = DenoiseConfig(policy=ThresholdPolicy(selector="oracle-erm"))
    with pytest.raises(ValueError, match="reference"):
        denoise(np.ones((8, 8)), cfg)


def test_sinogram_entry_skips_transform():
    rng = np.random.default_rng(2)
    counts = rng.poisson(4.0, size=(33, 20)).astype(float)
    cfg = DenoiseConfig(entry="sinogram",
                        wavelet=WaveletSpec("haar", 2, "undecimated"),
                        policy=ThresholdPolicy(selector="sure"))
    res = denoise_full(counts, cfg)
    assert np.array_equal(res.noisy_sinogram, counts)
    # a float64 input passes validation as the caller's own array
    assert not np.shares_memory(res.noisy_sinogram, counts)
    assert res.image.shape == counts.shape
    assert np.array_equal(res.image, res.denoised_sinogram)
    assert len(res.thresholds) == 2


def test_zero_threshold_is_identity_in_sinogram_mode():
    rng = np.random.default_rng(3)
    counts = rng.poisson(2.0, size=(16, 8)).astype(float)
    cfg = DenoiseConfig(entry="sinogram",
                        policy=ThresholdPolicy(selector="fixed", fixed_scale=0.0))
    res = denoise_full(counts, cfg)
    assert res.thresholds == [0.0]
    assert np.allclose(res.image, counts, atol=1e-10)


def test_image_entry_is_the_clipped_fbp_of_the_denoised_sinogram():
    # image entry returns the filtered backprojection of the denoised
    # sinogram, clipped at 0
    lam = smooth_phantom(32) * 5 + 0.05
    counts = sample_poisson(lam, seed=5).astype(float)
    cfg = DenoiseConfig(
        transform=TransformConfig("rotation", angles=60, interp="area"),
        policy=ThresholdPolicy(selector="sure"))
    result = denoise_full(counts, cfg)
    sino = drt_rotation(counts, angles=60, interp="area")
    fbp = fbp_invert(replace(sino, data=result.denoised_sinogram))
    assert fbp.min() < 0.0
    assert np.array_equal(result.image, np.clip(fbp, 0.0, None))


def test_image_entry_clips_the_negative_lobes_of_an_unshrunk_fbp():
    # a point source's filtered backprojection keeps negative ramp
    # lobes; with no shrinkage the pipeline returns exactly that FBP,
    # clipped
    counts = np.zeros((16, 16))
    counts[8, 8] = 50.0
    cfg = DenoiseConfig(
        transform=TransformConfig("rotation", angles=30, interp="area"),
        policy=ThresholdPolicy(selector="fixed", fixed_scale=0.0))
    image = denoise(counts, cfg)
    fbp = fbp_invert(drt_rotation(counts, angles=30, interp="area"))
    assert fbp.min() < -0.1
    clipped = np.clip(fbp, 0.0, None)
    assert np.abs(image - clipped).max() <= 1e-10 * np.abs(fbp).max()


def test_image_mode_keeps_radon_intermediates():
    lam = smooth_phantom(32) * 3 + 0.1
    counts = sample_poisson(lam, seed=6).astype(float)
    cfg = DenoiseConfig(transform=TransformConfig("rotation", angles=45,
                                                  interp="area"))
    res = denoise_full(counts, cfg)
    direct = drt_rotation(counts, angles=45, interp="area")
    assert np.allclose(res.noisy_sinogram, direct.data)
    assert res.denoised_sinogram.shape == direct.data.shape
    assert res.image.shape == counts.shape


def test_denoising_beats_raw_counts_on_structured_scene():
    spec = PhantomSpec(kind="inhomogeneous", size=64, background_intensity=0.5,
                       structure_gain=10.0)
    lam = make_phantom(spec)
    counts = sample_poisson(lam, seed=11).astype(float)
    cfg = DenoiseConfig(
        transform=TransformConfig("rotation", angles=90, interp="area"),
        wavelet=WaveletSpec("haar", 2, "undecimated"),
        policy=ThresholdPolicy(selector="oracle-erm"))
    est = denoise(counts, cfg, reference=lam)
    # shrinkage should beat the raw counts by a wide margin, not squeak by
    assert mse(est, lam) < 0.5 * mse(counts, lam)


def test_denoise_is_denoise_full_image():
    counts = sample_poisson(smooth_phantom(16) * 4 + 0.2, seed=7).astype(float)
    cfg = DenoiseConfig(transform=TransformConfig("rotation", angles=30,
                                                  interp="area"))
    assert np.array_equal(denoise(counts, cfg), denoise_full(counts, cfg).image)


def test_gdb_counts_can_be_denoised_as_sinogram():
    lam = np.full((8, 8), 4.0)
    counts = sample_poisson(lam, seed=8).astype(float)
    sino = drt_gdb(counts)
    cfg = DenoiseConfig(entry="sinogram", policy=ThresholdPolicy(selector="sure"))
    res = denoise_full(sino.data, cfg)
    assert res.image.shape == sino.data.shape
    assert res.image.min() >= 0.0


BAD_VALUES = [(np.nan, "non-finite"), (np.inf, "non-finite"),
              (-np.inf, "non-finite"), (-1.0, "negative")]


@pytest.mark.parametrize("entry", ["image", "sinogram"])
@pytest.mark.parametrize("bad, message", BAD_VALUES)
def test_denoise_rejects_bad_counts_before_any_transform(monkeypatch, entry,
                                                         bad, message):
    def never(*args, **kwargs):
        raise AssertionError("a transform ran on invalid counts")

    for name in ("propagate_intensity", "dwt_forward", "fbp_invert",
                 "_analysis_cascade"):
        monkeypatch.setattr(ridgelet, name, never)
    counts = np.full((16, 16), 3.0)
    counts[5, 7] = bad
    with pytest.raises(ValueError, match=message):
        denoise_full(counts, DenoiseConfig(entry=entry))


@pytest.mark.parametrize("entry", ["image", "sinogram"])
@pytest.mark.parametrize("shape", [(4, 0), (0, 4)])
def test_denoise_rejects_an_empty_axis_before_any_transform(monkeypatch,
                                                            entry, shape):
    def never(*args, **kwargs):
        raise AssertionError("a transform ran on an empty grid")

    for name in ("propagate_intensity", "dwt_forward", "fbp_invert",
                 "_analysis_cascade"):
        monkeypatch.setattr(ridgelet, name, never)
    with pytest.raises(ValueError, match=re.escape(f"empty axis: shape {shape}")):
        denoise(np.zeros(shape), DenoiseConfig(entry=entry))


@pytest.mark.parametrize("config, message", [
    (DenoiseConfig(transform=TransformConfig("gdb")), "rotation variant"),
    (DenoiseConfig(wavelet=WaveletSpec("haar", 1, "decimated")),
     "mode = undecimated"),
    (DenoiseConfig(wavelet=WaveletSpec("haar", 5)), "at least 32; got 27"),
])
def test_image_entry_rejects_impossible_configs_before_any_transform(
        monkeypatch, config, message):
    # gdb sinograms cannot be backprojected, Radon columns have odd
    # length and an undecimated depth can exceed their length (27 at
    # 16 px); each used to fail only deep inside a transform
    def never(*args, **kwargs):
        raise AssertionError("a transform ran with an impossible config")

    for name in ("propagate_intensity", "dwt_forward", "fbp_invert",
                 "_analysis_cascade"):
        monkeypatch.setattr(ridgelet, name, never)
    with pytest.raises(ValueError, match=message):
        denoise_full(np.full((16, 16), 3.0), config)


def test_denoise_rejects_non_2d_counts():
    with pytest.raises(ValueError, match="2-D"):
        denoise_full(np.ones(16), DenoiseConfig(entry="sinogram"))


@pytest.mark.parametrize("bad, message", BAD_VALUES)
def test_denoise_rejects_bad_reference(bad, message):
    reference = np.full((16, 16), 3.0)
    reference[2, 2] = bad
    cfg = DenoiseConfig(policy=ThresholdPolicy(selector="oracle-erm"))
    with pytest.raises(ValueError, match=message):
        denoise_full(np.ones((16, 16)), cfg, reference=reference)


def test_denoise_rejects_reference_of_other_shape():
    cfg = DenoiseConfig(policy=ThresholdPolicy(selector="oracle-erm"))
    with pytest.raises(ValueError, match="shape"):
        denoise_full(np.ones((16, 16)), cfg, reference=np.ones((16, 8)))


def test_sinogram_entry_rejects_over_deep_undecimated_levels(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a transform ran with an impossible depth")

    for name in ("dwt_forward", "dwt_inverse", "_analysis_cascade"):
        monkeypatch.setattr(ridgelet, name, never)
    cfg = DenoiseConfig(entry="sinogram",
                        wavelet=WaveletSpec("haar", 8, "undecimated"),
                        policy=ThresholdPolicy(selector="sure"))
    with pytest.raises(ValueError, match="at least 256; got 16"):
        denoise_full(np.full((16, 8), 3.0), cfg)


@pytest.mark.parametrize("levels", [1, 2, 3])
def test_sinogram_entry_runs_one_analysis_cascade(monkeypatch, levels):
    # one highpass and one lowpass pass per level: the noise model reads
    # the approximations of the same cascade that made the pyramid
    holes = []
    kernel = wavelet._undec_analysis

    def counting(x, taps, hole):
        holes.append(hole)
        return kernel(x, taps, hole)

    monkeypatch.setattr(wavelet, "_undec_analysis", counting)
    counts = sample_poisson(np.full((16, 8), 4.0), seed=5).astype(float)
    cfg = DenoiseConfig(entry="sinogram",
                        wavelet=WaveletSpec("haar", levels, "undecimated"),
                        policy=ThresholdPolicy(selector="sure"))
    res = denoise_full(counts, cfg)
    assert len(res.thresholds) == levels
    assert sorted(holes) == sorted(2 * [2 ** j for j in range(levels)])


def test_image_entry_projects_noisy_and_reference_separately(monkeypatch):
    # one projection each for the counts and the reference, and the
    # noisy sinogram is bit-identical to projecting the counts alone
    calls = []

    def counting(image, config):
        calls.append(np.shape(image))
        return propagate(image, config)

    propagate = ridgelet.propagate_intensity
    monkeypatch.setattr(ridgelet, "propagate_intensity", counting)
    lam = smooth_phantom(16) * 5.0
    counts = sample_poisson(lam, seed=3).astype(float)
    cfg = DenoiseConfig(transform=TransformConfig(angles=12, interp="area"),
                        policy=ThresholdPolicy(selector="oracle-erm"))
    res = denoise_full(counts, cfg, reference=lam)
    assert calls == [(16, 16), (16, 16)]
    alone = drt_rotation(counts, angles=12, interp="area").data
    assert np.array_equal(res.noisy_sinogram, alone)


@pytest.mark.parametrize("selector", ["sure", "fixed"])
def test_only_the_oracle_projects_or_analyses_the_reference(monkeypatch,
                                                            selector):
    # sure and fixed never read the reference: it is validated, but not
    # projected or analysed, and the result is the one without it
    calls = []

    def counting(image, config):
        calls.append(np.shape(image))
        return propagate(image, config)

    def never(*args, **kwargs):
        raise AssertionError("the reference was analysed")

    propagate = ridgelet.propagate_intensity
    monkeypatch.setattr(ridgelet, "propagate_intensity", counting)
    monkeypatch.setattr(ridgelet, "dwt_forward", never)
    lam = smooth_phantom(16) * 5.0
    counts = sample_poisson(lam, seed=3).astype(float)
    cfg = DenoiseConfig(transform=TransformConfig(angles=12, interp="area"),
                        wavelet=WaveletSpec("haar", 2, "undecimated"),
                        policy=ThresholdPolicy(selector=selector))
    with_ref = denoise_full(counts, cfg, reference=lam)
    assert calls == [(16, 16)]
    alone = denoise_full(counts, cfg)
    for name in ("image", "noisy_sinogram", "denoised_sinogram"):
        assert getattr(with_ref, name).tobytes() == getattr(alone, name).tobytes()
    assert with_ref.thresholds == alone.thresholds


@pytest.mark.parametrize("selector", ["sure", "fixed", "oracle-erm"])
@pytest.mark.parametrize("entry", ["image", "sinogram"])
def test_bad_reference_fails_at_entry_under_every_selector(monkeypatch,
                                                           selector, entry):
    def never(*args, **kwargs):
        raise AssertionError("a transform ran with an invalid reference")

    for name in ("propagate_intensity", "dwt_forward", "fbp_invert",
                 "_analysis_cascade"):
        monkeypatch.setattr(ridgelet, name, never)
    cfg = DenoiseConfig(entry=entry, policy=ThresholdPolicy(selector=selector))
    counts = np.ones((16, 16))
    nan_ref = np.full((16, 16), 3.0)
    nan_ref[2, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        denoise_full(counts, cfg, reference=nan_ref)
    with pytest.raises(ValueError, match="shape"):
        denoise_full(counts, cfg, reference=np.ones((16, 8)))


@pytest.mark.parametrize("selector", ["sure", "oracle-erm"])
def test_each_band_threshold_is_selected_on_that_band_alone(selector):
    # tau_j depends only on band j, its co-located approximation and,
    # for the oracle, band j of the reference's analysis
    lam = np.random.default_rng(1).uniform(0, 6, size=(32, 5))
    counts = np.random.default_rng(2).poisson(lam).astype(float)
    spec = WaveletSpec("haar", 3, "undecimated")
    policy = ThresholdPolicy(selector=selector)
    cfg = DenoiseConfig(wavelet=spec, policy=policy, entry="sinogram")
    res = denoise_full(counts, cfg, reference=lam)
    details = dwt_forward(counts, spec).details
    refs = dwt_forward(lam, spec).details
    expected = []
    for level, (band, approx, ref) in enumerate(
            zip(details, approximation_chain(counts, spec), refs), start=1):
        noise = estimate_band_noise(band, approx, spec, level)
        expected.append(select_threshold(band, noise, policy, ref))
    assert res.thresholds == expected
    assert len(set(expected)) > 1


TRANSFORM_NAMES = ("propagate_intensity", "_analysis_cascade", "dwt_forward",
                   "dwt_inverse", "fbp_invert")


@st.composite
def denoise_cases(draw):
    """A shape, a config and counts, valid or not, for denoise_full."""
    ndim = draw(st.sampled_from([2] * 6 + [1, 3]))
    shape = tuple(draw(st.lists(st.integers(1, 20), min_size=ndim,
                                max_size=ndim)))
    transform = TransformConfig(
        variant=draw(st.sampled_from(["rotation", "rotation", "gdb"])),
        angles=draw(st.integers(1, 16)),
        interp=draw(st.sampled_from(["nearest", "linear", "area"])))
    wav = WaveletSpec(draw(st.sampled_from(["haar", "db2"])),
                      levels=draw(st.integers(1, 5)),
                      mode=draw(st.sampled_from(["undecimated", "undecimated",
                                                 "decimated"])))
    selector = draw(st.sampled_from(["sure", "oracle-erm", "fixed"]))
    policy = ThresholdPolicy(
        selector=selector,
        grid_points=draw(st.integers(2, 60)),
        grid_max=draw(st.floats(0.1, 10.0)),
        fixed_scale=draw(st.floats(0.0, 6.0)))
    cfg = DenoiseConfig(transform=transform, wavelet=wav, policy=policy,
                        entry=draw(st.sampled_from(["image", "sinogram"])))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rate = draw(st.sampled_from([0.0, 0.05, 1.0, 30.0]))
    counts = rng.poisson(rate, size=shape).astype(float)
    bad = draw(st.sampled_from([None] * 6 + [np.nan, np.inf, -1.0]))
    if bad is not None and counts.size:
        counts.flat[rng.integers(counts.size)] = bad
    reference = None
    if draw(st.sampled_from([True, True, True, False])):
        reference = np.full(shape, rate)
    return counts, cfg, reference


@settings(max_examples=150, deadline=None)
@given(denoise_cases())
def test_denoise_full_rejects_at_entry_or_returns_a_valid_estimate(case):
    # the contract of denoise_full: either a ValueError before any
    # transform runs, or a finite, non-negative estimate of the input shape
    counts, cfg, reference = case
    calls = []

    def recording(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    with pytest.MonkeyPatch.context() as mp:
        for name in TRANSFORM_NAMES:
            mp.setattr(ridgelet, name,
                       recording(name, getattr(ridgelet, name)))
        try:
            res = denoise_full(counts, cfg, reference=reference)
        except ValueError:
            assert calls == []
            return
    assert res.image.shape == counts.shape
    assert np.all(np.isfinite(res.image))
    assert res.image.min() >= 0.0
