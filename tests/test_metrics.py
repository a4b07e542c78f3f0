import numpy as np
import pytest

from poissonridge.metrics import mse, psnr, ssim_global

# frozen oracle: global SSIM of this pair evaluated by hand from the
# l*c*s formula with C1=(0.01L)^2, C2=(0.03L)^2, C3=C2/2, L=4
_A = np.array([[1., 2., 0., 1.], [3., 4., 2., 2.],
               [0., 1., 1., 0.], [2., 3., 1., 4.]])
_B = np.array([[1., 1., 0., 2.], [2., 4., 3., 2.],
               [1., 1., 0., 0.], [2., 4., 1., 3.]])
_SSIM_AB = 0.8434607693120494


def test_mse_hand_values():
    assert mse(np.ones((3, 3)), np.ones((3, 3))) == 0.0
    # constant difference c gives c^2
    assert mse(np.full((5, 5), 7.0), np.full((5, 5), 4.0)) == pytest.approx(9.0)
    assert mse(np.array([[0., 3.]]), np.array([[4., 0.]])) == pytest.approx(12.5)


def test_mse_symmetry_and_shape_check():
    a = np.random.default_rng(0).normal(size=(6, 6))
    b = np.random.default_rng(1).normal(size=(6, 6))
    assert mse(a, b) == pytest.approx(mse(b, a))
    with pytest.raises(ValueError):
        mse(a, b[:3])


def test_psnr_peak_255_mse_1():
    ref = np.zeros((16, 16))
    ref[0, 0] = 255.0
    x = ref + 1.0  # mse exactly 1
    assert psnr(x, ref) == pytest.approx(48.1308036086791, abs=1e-10)


def test_psnr_doubling_peak_adds_6dB():
    ref = np.zeros((8, 8))
    ref[0, 0] = 100.0
    x = ref + 2.0
    gain = psnr(x, ref, peak=200.0) - psnr(x, ref, peak=100.0)
    assert gain == pytest.approx(10 * np.log10(4.0), abs=1e-12)


def test_psnr_identical_images_infinite():
    a = np.arange(9.0).reshape(3, 3)
    assert psnr(a, a) == float("inf")


def test_psnr_decreases_with_mse():
    ref = np.zeros((8, 8))
    ref[0, 0] = 10.0
    assert psnr(ref + 0.5, ref) > psnr(ref + 1.0, ref)


def test_ssim_identical_images_is_one():
    a = np.random.default_rng(2).uniform(1, 5, size=(10, 10))
    assert ssim_global(a, a) == pytest.approx(1.0, abs=1e-12)


def test_ssim_frozen_pair():
    assert ssim_global(_A, _B) == pytest.approx(_SSIM_AB, abs=1e-12)


def test_ssim_symmetry():
    # with a shared explicit data range the statistic is symmetric
    assert ssim_global(_A, _B, data_range=4.0) == pytest.approx(
        ssim_global(_B, _A, data_range=4.0), abs=1e-12)


def test_ssim_anticorrelated_can_go_negative():
    a = np.array([[0., 1.], [2., 3.]])
    b = 3.0 - a
    assert ssim_global(a, b, data_range=3.0) < 0.0


def test_ssim_bounded_above_by_one():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.uniform(0, 9, size=(7, 7))
        b = rng.uniform(0, 9, size=(7, 7))
        assert ssim_global(a, b, data_range=9.0) <= 1.0 + 1e-12


def test_metric_validation():
    with pytest.raises(ValueError):
        psnr(np.zeros((2, 2)), np.zeros((2, 2)))  # nonpositive peak
    with pytest.raises(ValueError):
        ssim_global(_A, _B, data_range=0.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="peak must be positive and finite"):
            psnr(_A, _B, peak=bad)
        with pytest.raises(ValueError, match="data_range must be positive"):
            ssim_global(_A, _B, data_range=bad)
    for metric in (mse, psnr, ssim_global):
        # a NaN or inf pixel fails loudly instead of returning NaN or inf
        for bad in (np.nan, np.inf, -np.inf):
            x = _A.copy()
            x[1, 2] = bad
            with pytest.raises(ValueError, match="input holds NaN or inf"):
                metric(x, _B)
            with pytest.raises(ValueError, match="reference holds NaN or inf"):
                metric(_B, x)
        for shape in ((0,), (0, 4), (3, 0)):
            with pytest.raises(ValueError, match="empty"):
                metric(np.zeros(shape), np.zeros(shape))
