import numpy as np
import pytest

import poissonridge.ridgelet as ridgelet
from poissonridge.metrics import mse
from poissonridge.phantoms import PhantomSpec, make_phantom, sample_poisson
from poissonridge.radon import (TransformConfig, drt_gdb, drt_rotation,
                                fbp_invert)
from poissonridge.ridgelet import (DenoiseConfig, denoise, denoise_full,
                                   ridgelet_forward, ridgelet_inverse)
from poissonridge.shrinkage import ThresholdPolicy
from poissonridge.wavelet import WaveletSpec, dwt_inverse


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
    assert cfg.clamp_negative


def test_entry_validation():
    with pytest.raises(ValueError):
        DenoiseConfig(entry="projections")


def test_forward_pyramid_inverts_to_the_sinogram():
    rng = np.random.default_rng(0)
    img = rng.uniform(0, 3, size=(16, 16))
    cfg = DenoiseConfig(transform=TransformConfig("rotation", angles=24,
                                                  interp="area"),
                        wavelet=WaveletSpec("haar", 2, "undecimated"))
    coeffs = ridgelet_forward(img, cfg)
    direct = drt_rotation(img, angles=24, interp="area")
    assert np.max(np.abs(dwt_inverse(coeffs.pyramid) - direct.data)) <= 1e-10


def test_forward_echoes_sinogram_geometry():
    img = np.ones((8, 8))
    cfg = DenoiseConfig(transform=TransformConfig("rotation", angles=12,
                                                  interp="nearest"))
    coeffs = ridgelet_forward(img, cfg)
    direct = drt_rotation(img, angles=12, interp="nearest")
    assert coeffs.sinogram.variant == "rotation"
    assert coeffs.sinogram.image_shape == (8, 8)
    assert coeffs.sinogram.offset_min == direct.offset_min
    assert coeffs.sinogram.interp == "nearest"
    assert np.allclose(coeffs.sinogram.angles, direct.angles)

    gdb = ridgelet_forward(img, DenoiseConfig(transform=TransformConfig("gdb")))
    assert gdb.sinogram.variant == "gdb" and gdb.sinogram.gdb_size == 8


def test_forward_rejects_a_stack_before_projecting(monkeypatch):
    # drt_* take stacks, but the coefficients hold one image's pyramid
    def never(*args, **kwargs):
        raise AssertionError("a stack was projected")

    monkeypatch.setattr(ridgelet, "propagate_intensity", never)
    with pytest.raises(ValueError, match="2-D"):
        ridgelet_forward(np.ones((8, 8, 2)), DenoiseConfig())


def test_projection_pyramid_views_columns():
    rng = np.random.default_rng(1)
    img = rng.uniform(0, 2, size=(8, 8))
    cfg = DenoiseConfig(transform=TransformConfig("rotation", angles=10,
                                                  interp="linear"),
                        wavelet=WaveletSpec("haar", 2, "undecimated"))
    coeffs = ridgelet_forward(img, cfg)
    direct = drt_rotation(img, angles=10, interp="linear")
    for c in (0, 4, 9):
        one = coeffs.projection_pyramid(c)
        assert one.approximation.ndim == 1
        rec = dwt_inverse(one)
        assert np.allclose(rec, direct.data[:, c], atol=1e-10)


def test_inverse_round_trip_on_smooth_image():
    img = smooth_phantom(64)
    cfg = DenoiseConfig(transform=TransformConfig("rotation", angles=180,
                                                  interp="area"),
                        wavelet=WaveletSpec("haar", 3, "undecimated"))
    rec = ridgelet_inverse(ridgelet_forward(img, cfg))
    n = img.shape[0]
    jj, ii = np.mgrid[0:n, 0:n]
    interior = np.hypot(ii - (n - 1) / 2, jj - (n - 1) / 2) <= 0.45 * n
    err = np.linalg.norm((rec - img)[interior]) / np.linalg.norm(img[interior])
    assert err <= 0.02


def test_inverse_rejects_gdb_coefficients():
    coeffs = ridgelet_forward(np.ones((8, 8)),
                              DenoiseConfig(transform=TransformConfig("gdb")))
    with pytest.raises(ValueError):
        ridgelet_inverse(coeffs)


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


def test_clamp_toggle_is_exactly_a_clip():
    rng = np.random.default_rng(4)
    lam = smooth_phantom(32) * 5 + 0.05
    counts = sample_poisson(lam, seed=5).astype(float)
    base = dict(transform=TransformConfig("rotation", angles=60, interp="area"),
                policy=ThresholdPolicy(selector="sure"))
    raw = denoise(counts, DenoiseConfig(clamp_negative=False, **base))
    clamped = denoise(counts, DenoiseConfig(clamp_negative=True, **base))
    assert np.array_equal(clamped, np.clip(raw, 0.0, None))
    assert clamped.min() >= 0.0


def test_image_entry_clamp_off_keeps_negative_lobes():
    # a point source's filtered backprojection has negative ramp lobes;
    # with no shrinkage the pipeline returns exactly that FBP, clipped
    # only when clamp_negative is set
    counts = np.zeros((16, 16))
    counts[8, 8] = 50.0
    base = dict(transform=TransformConfig("rotation", angles=30, interp="area"),
                policy=ThresholdPolicy(selector="fixed", fixed_scale=0.0))
    raw = denoise(counts, DenoiseConfig(clamp_negative=False, **base))
    clamped = denoise(counts, DenoiseConfig(clamp_negative=True, **base))
    fbp = fbp_invert(drt_rotation(counts, angles=30, interp="area"))
    assert raw.min() < -0.1
    assert np.abs(raw - fbp).max() <= 1e-10 * np.abs(fbp).max()
    assert np.array_equal(clamped, np.clip(raw, 0.0, None))


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

    for name in ("propagate_intensity", "dwt_forward", "fbp_invert"):
        monkeypatch.setattr(ridgelet, name, never)
    counts = np.full((16, 16), 3.0)
    counts[5, 7] = bad
    with pytest.raises(ValueError, match=message):
        denoise_full(counts, DenoiseConfig(entry=entry))


@pytest.mark.parametrize("config, message", [
    (DenoiseConfig(transform=TransformConfig("gdb")), "rotation variant"),
    (DenoiseConfig(wavelet=WaveletSpec("haar", 1, "decimated")),
     "mode = undecimated"),
])
def test_image_entry_rejects_impossible_configs_before_any_transform(
        monkeypatch, config, message):
    # gdb sinograms cannot be backprojected and Radon columns have odd
    # length; both used to fail only deep inside a transform
    def never(*args, **kwargs):
        raise AssertionError("a transform ran with an impossible config")

    for name in ("propagate_intensity", "dwt_forward", "fbp_invert"):
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

    for name in ("dwt_forward", "approximation_chain", "dwt_inverse"):
        monkeypatch.setattr(ridgelet, name, never)
    cfg = DenoiseConfig(entry="sinogram",
                        wavelet=WaveletSpec("haar", 8, "undecimated"),
                        policy=ThresholdPolicy(selector="sure"))
    with pytest.raises(ValueError, match="at least 256; got 16"):
        denoise_full(np.full((16, 8), 3.0), cfg)
