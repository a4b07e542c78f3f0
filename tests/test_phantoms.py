import re

import numpy as np
import pytest

from poissonridge.phantoms import (Bar, Disk, PhantomSpec, make_phantom,
                                   sample_poisson, validate_intensity)


def test_homogeneous_is_constant_fill():
    spec = PhantomSpec(kind="homogeneous", size=64, background_intensity=0.05)
    img = make_phantom(spec)
    assert img.shape == (64, 64)
    assert (img == 0.05).all()


def test_degenerate_size_one_zero_rate():
    spec = PhantomSpec(kind="homogeneous", size=1, background_intensity=0.0)
    img = make_phantom(spec)
    assert img.shape == (1, 1)
    assert img[0, 0] == 0.0


def test_inhomogeneous_disk_levels():
    spec = PhantomSpec(kind="inhomogeneous", size=64,
                       background_intensity=0.05, structure_gain=10.0,
                       structures=[Disk(0.5, 0.5, 0.125)])
    img = make_phantom(spec)
    # gain 10 on background 0.05 puts structure pixels at 0.5
    assert img[32, 32] == pytest.approx(0.5)
    assert img[0, 0] == pytest.approx(0.05)
    assert set(np.unique(img)) == {0.05, 0.5}


def test_inhomogeneous_bar_covers_expected_rows():
    spec = PhantomSpec(kind="inhomogeneous", size=32,
                       background_intensity=1.0, structure_gain=3.0,
                       structures=[Bar(0.25, 0.25, 0.5, 0.25)])
    img = make_phantom(spec)
    assert img[8, 8] == pytest.approx(3.0)
    assert img.max() == pytest.approx(3.0)
    assert img.min() == pytest.approx(1.0)


def test_out_of_bounds_structure_names_index():
    with pytest.raises(ValueError, match="1"):
        PhantomSpec(kind="inhomogeneous", size=64,
                    structures=[Disk(0.5, 0.5, 0.1), Disk(0.95, 0.5, 0.2)])


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        make_phantom(PhantomSpec(kind="mystery"))


@pytest.mark.parametrize("kwargs", [
    *[{name: value}
      for name in ("background_intensity", "structure_gain")
      for value in (np.nan, np.inf, -np.inf, -1.0)],
    {"size": 0},
    {"kind": "synthetic-sinogram", "size": 1},
    {"kind": "synthetic-sinogram", "size": 16.7},
    {"size": 8.5},
    {"kind": "mystery"},
    {"kind": "inhomogeneous", "structures": (Bar(0.9, 0.1, 0.2, 0.1),)},
    {"kind": "inhomogeneous", "structures": ("blob",)},
], ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()))
def test_spec_that_can_never_be_built_is_rejected_on_construction(kwargs):
    with pytest.raises(ValueError):
        PhantomSpec(**kwargs)


def test_default_structures_are_a_tuple():
    # the config parser builds a tuple; a list default would compare unequal
    assert PhantomSpec().structures == (Disk(0.5, 0.5, 0.125),
                                        Bar(0.70, 0.15, 0.0625, 1.0 / 3.0))


def test_synthetic_sinogram_peak_scaling():
    spec = PhantomSpec(kind="synthetic-sinogram", size=64,
                       background_intensity=255.0)
    sino = make_phantom(spec)
    assert sino.ndim == 2
    assert sino.min() >= 0.0
    assert sino.max() == pytest.approx(255.0)
    # sinogram rows are offsets, columns are angles (one per size)
    assert sino.shape[1] == 64


def test_synthetic_sinogram_scales_linearly_with_background_intensity():
    lo = make_phantom(PhantomSpec(kind="synthetic-sinogram", size=32,
                                  background_intensity=10.0))
    hi = make_phantom(PhantomSpec(kind="synthetic-sinogram", size=32,
                                  background_intensity=30.0))
    assert np.allclose(hi, 3.0 * lo)


@pytest.mark.parametrize("peak", [5e-324, 1e-320])
def test_synthetic_sinogram_keeps_a_subnormal_peak(peak):
    # peak / max(sinogram) underflows at these rates, so the sinogram is
    # divided by its maximum before it is scaled
    sino = make_phantom(PhantomSpec(kind="synthetic-sinogram", size=8,
                                    background_intensity=peak))
    assert sino.max() == peak


def test_peak_factor_is_not_a_spec_field():
    # the sinogram's peak is background_intensity itself
    with pytest.raises(TypeError, match="peak_factor"):
        PhantomSpec(peak_factor=1.0)


def test_validate_intensity_rejects_bad_arrays():
    with pytest.raises(ValueError):
        validate_intensity(np.ones(5))
    with pytest.raises(ValueError):
        validate_intensity(np.array([[1.0, -0.1]]))
    with pytest.raises(ValueError):
        validate_intensity(np.array([[np.nan, 1.0]]))
    for shape in [(0, 4), (4, 0)]:
        with pytest.raises(ValueError, match=re.escape(f"empty axis: shape {shape}")):
            validate_intensity(np.zeros(shape))


def test_sample_poisson_deterministic_and_integer():
    img = make_phantom(PhantomSpec(kind="homogeneous", size=16,
                                   background_intensity=4.0))
    a = sample_poisson(img, seed=5)
    b = sample_poisson(img, seed=5)
    c = sample_poisson(img, seed=6)
    assert a.dtype == np.int64
    assert (a == b).all()
    assert not (a == c).all()


def test_sample_poisson_matches_rate_moments():
    # mean within 5 sigma of the rate under the CLT, variance near mean
    img = np.full((200, 200), 3.0)
    x = sample_poisson(img, seed=0)
    n = x.size
    assert abs(x.mean() - 3.0) < 5 * np.sqrt(3.0 / n)
    assert abs(x.var() / 3.0 - 1.0) < 0.05


def test_sample_poisson_zero_rate_gives_zero_counts():
    x = sample_poisson(np.zeros((4, 4)), seed=1)
    assert (x == 0).all()
