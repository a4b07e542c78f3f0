from dataclasses import replace

import numpy as np
import pytest

import poissonridge.wavelet as wavelet
from poissonridge.wavelet import (WaveletSpec, _filter_pair, _undec_adjoint,
                                  _undec_analysis, approximation_chain,
                                  dwt_forward, dwt_inverse, lowpass_gain,
                                  wavelet_atom)

RT2 = np.sqrt(2.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        WaveletSpec(filter="haar", mode="lazy")
    with pytest.raises(ValueError):
        WaveletSpec(filter="haar", levels=0)
    with pytest.raises(ValueError, match="unknown wavelet filter"):
        WaveletSpec(filter="meyer")


@pytest.mark.parametrize("name", sorted(wavelet.FILTERS))
def test_registered_filters_are_orthonormal(name):
    # unit norm and orthogonality to even shifts: estimate_band_noise
    # relies on the resulting sum psi^2 = 1 of every atom
    lo = wavelet.FILTERS[name]
    assert abs(lo @ lo - 1.0) <= 1e-12
    for shift in range(2, len(lo), 2):
        assert abs(lo[:-shift] @ lo[shift:]) <= 1e-12


@pytest.mark.parametrize("levels", [2.0, 2.5, np.float64(1.0), np.nan])
def test_non_integer_levels_are_rejected(levels):
    # rejected when the spec is built, not as a TypeError in the cascade
    with pytest.raises(ValueError, match="levels must be an integer"):
        WaveletSpec("haar", levels)


def test_haar_decimated_one_level_frozen():
    x = np.array([4.0, 2.0, 5.0, 5.0])
    pyr = dwt_forward(x, WaveletSpec("haar", 1, "decimated"))
    # pairwise sums and first-minus-second differences over sqrt(2)
    assert np.allclose(pyr.approximation, [6 / RT2, 10 / RT2])
    assert np.allclose(pyr.details[0], [2 / RT2, 0.0])


def test_haar_undecimated_one_level_frozen():
    x = np.array([4.0, 2.0, 5.0, 5.0])
    pyr = dwt_forward(x, WaveletSpec("haar", 1, "undecimated"))
    # every shift kept: a[k]=(x[k]+x[k+1])/rt2, d[k]=(x[k]-x[k+1])/rt2
    assert np.allclose(pyr.approximation, np.array([6, 7, 10, 9]) / RT2)
    assert np.allclose(pyr.details[0], np.array([2, -3, 0, 1]) / RT2)


def test_decimated_is_orthonormal_parseval():
    rng = np.random.default_rng(0)
    x = rng.normal(size=64)
    pyr = dwt_forward(x, WaveletSpec("db2", 3, "decimated"))
    energy = np.sum(pyr.approximation ** 2) + sum(np.sum(d ** 2) for d in pyr.details)
    assert energy == pytest.approx(np.sum(x ** 2), rel=1e-12)


@pytest.mark.parametrize("mode", ["decimated", "undecimated"])
@pytest.mark.parametrize("levels", [1, 2, 3])
@pytest.mark.parametrize("filt", ["haar", "db2"])
def test_round_trip(mode, levels, filt):
    rng = np.random.default_rng(levels)
    x = rng.uniform(-1, 3, size=64)
    spec = WaveletSpec(filt, levels, mode)
    rec = dwt_inverse(dwt_forward(x, spec))
    assert np.max(np.abs(rec - x)) <= 1e-10


def test_round_trip_awkward_length_undecimated():
    # undecimated transform has no divisibility requirement
    rng = np.random.default_rng(7)
    x = rng.uniform(0, 5, size=362)
    for levels in (1, 2, 3):
        spec = WaveletSpec("haar", levels, "undecimated")
        rec = dwt_inverse(dwt_forward(x, spec))
        assert np.max(np.abs(rec - x)) <= 1e-10


def test_decimated_length_divisibility_enforced():
    x = np.zeros(362)
    dwt_forward(x, WaveletSpec("haar", 1, "decimated"))  # 362 = 2 * 181
    for levels in (2, 3):
        with pytest.raises(ValueError, match="divisible"):
            dwt_forward(x, WaveletSpec("haar", levels, "decimated"))


@pytest.mark.parametrize("filt", ["haar", "db2"])
def test_undecimated_levels_limited_to_log2_length(filt):
    # holes of 2**(level-1) wrap onto themselves once 2**levels exceeds
    # the length, so every entry point refuses that depth
    spec = WaveletSpec(filt, 5, "undecimated")
    x = np.ones((16, 3))
    with pytest.raises(ValueError, match="at least 32; got 16"):
        dwt_forward(x, spec)
    with pytest.raises(ValueError, match="at least 32; got 16"):
        approximation_chain(x, spec)
    with pytest.raises(ValueError, match="at least 32; got 16"):
        wavelet_atom(spec, 1, 0, 16)
    # 2**levels equal to the length is still accepted
    ok = WaveletSpec(filt, 4, "undecimated")
    assert len(dwt_forward(x, ok).details) == 4
    assert len(approximation_chain(x, ok)) == 4
    assert wavelet_atom(ok, 4, 0, 16).shape == (16,)


def test_signal_shape_validation():
    spec = WaveletSpec("haar", 1, "undecimated")
    with pytest.raises(ValueError):
        dwt_forward(np.array([1.0]), spec)
    with pytest.raises(ValueError):
        dwt_forward(np.zeros((4, 4, 4)), spec)


def test_batch_columns_match_individual_transforms():
    rng = np.random.default_rng(3)
    xs = rng.uniform(0, 2, size=(32, 5))
    for mode in ("decimated", "undecimated"):
        spec = WaveletSpec("haar", 2, mode)
        pyr = dwt_forward(xs, spec)
        for c in range(5):
            single = dwt_forward(xs[:, c], spec)
            assert np.allclose(pyr.approximation[:, c], single.approximation)
            for d_all, d_one in zip(pyr.details, single.details):
                assert np.allclose(d_all[:, c], d_one)
        rec = dwt_inverse(pyr)
        assert np.allclose(rec, xs, atol=1e-12)


def test_db2_detail_vanishes_on_linear_ramp_interior():
    # two vanishing moments kill affine signals away from the wrap seam
    x = np.arange(32, dtype=float)
    pyr = dwt_forward(x, WaveletSpec("db2", 1, "decimated"))
    d = pyr.details[0]
    assert np.max(np.abs(d[:14])) <= 1e-12
    assert np.abs(d[-1]) > 1.0  # the seam coefficient sees the jump


@pytest.mark.parametrize("mode", ["decimated", "undecimated"])
@pytest.mark.parametrize("filt", ["haar", "db2"])
def test_atom_inner_product_identity(mode, filt):
    # <atom(level, k), x> reproduces the transform coefficient exactly
    rng = np.random.default_rng(11)
    n = 32
    x = rng.uniform(-2, 2, size=n)
    spec = WaveletSpec(filt, 3, mode)
    pyr = dwt_forward(x, spec)
    for level in (1, 2, 3):
        band = pyr.details[level - 1]
        for k in range(band.shape[0]):
            atom = wavelet_atom(spec, level, k, n, band="detail")
            assert atom @ x == pytest.approx(band[k], abs=1e-10)
    approx = pyr.approximation
    for k in range(approx.shape[0]):
        atom = wavelet_atom(spec, spec.levels, k, n, band="approximation")
        assert atom @ x == pytest.approx(approx[k], abs=1e-10)


def test_atom_validation():
    spec = WaveletSpec("haar", 2, "decimated")
    with pytest.raises(ValueError):
        wavelet_atom(spec, 3, 0, 16)
    with pytest.raises(ValueError):
        wavelet_atom(spec, 1, 8, 16)  # band length is 8, k must be < 8
    with pytest.raises(ValueError):
        wavelet_atom(spec, 1, 0, 16, band="scaling")
    # 1.5 would fail deep inside numpy indexing and 16.0 inside np.zeros
    for k in (1.5, 1.0, np.float64(2.0), "1"):
        with pytest.raises(ValueError, match="position must be an integer"):
            wavelet_atom(spec, 1, k, 16)
    for n in (16.0, np.float64(16.0), 16.5):
        with pytest.raises(ValueError, match="signal length must be an integer"):
            wavelet_atom(spec, 1, 1, n)
    assert wavelet_atom(spec, np.int64(1), np.int64(1), np.int64(16)).shape == (16,)


def test_haar_atoms_have_equal_magnitude_entries():
    # every Haar analysis atom is +-c on its support, the property that
    # makes the scaled-Poisson-difference moment match exact
    for mode in ("decimated", "undecimated"):
        spec = WaveletSpec("haar", 3, mode)
        for level in (1, 2, 3):
            atom = wavelet_atom(spec, level, 0, 16, band="detail")
            nz = atom[np.abs(atom) > 1e-15]
            assert np.allclose(np.abs(nz), np.abs(nz[0]))
            assert len(nz) == 2 ** level


def test_approximation_chain_momentum():
    rng = np.random.default_rng(5)
    x = rng.uniform(0, 4, size=16)
    for mode in ("decimated", "undecimated"):
        spec = WaveletSpec("haar", 3, mode)
        chain = approximation_chain(x, spec)
        pyr = dwt_forward(x, spec)
        assert len(chain) == 3
        assert np.allclose(chain[-1], pyr.approximation)
        for level, a in enumerate(chain, start=1):
            assert a.shape[0] == pyr.details[level - 1].shape[0]


def test_lowpass_gain_powers_of_sqrt2():
    spec = WaveletSpec("haar", 3, "undecimated")
    for level in (1, 2, 3):
        assert lowpass_gain(spec, level) == pytest.approx(RT2 ** level)
    # a constant signal maps to gain * constant in the approximation band
    x = np.full(16, 3.0)
    chain = approximation_chain(x, spec)
    for level, a in enumerate(chain, start=1):
        assert np.allclose(a, 3.0 * lowpass_gain(spec, level))


@pytest.mark.parametrize("level", [0, -1, 4, 7, 1.5, 2.0])
def test_lowpass_gain_rejects_a_level_outside_the_spec(level):
    # no band of the spec has the gain of such a level
    with pytest.raises(ValueError, match=r"level must be an integer in 1\.\.3"):
        lowpass_gain(WaveletSpec("haar", 3, "undecimated"), level)


def test_approximation_chain_is_the_forward_cascade():
    # a_j of the chain is bit-identical to the approximation a j-level
    # forward transform ends on
    rng = np.random.default_rng(9)
    x = rng.uniform(0, 4, size=(32, 3))
    for mode in ("decimated", "undecimated"):
        for filt in ("haar", "db2"):
            spec = WaveletSpec(filt, 3, mode)
            chain = approximation_chain(x, spec)
            for level, a in enumerate(chain, start=1):
                pyr = dwt_forward(x, replace(spec, levels=level))
                assert np.array_equal(a, pyr.approximation)


def roll_analysis(x, taps, hole):
    out = np.zeros_like(x)
    for m, c in enumerate(taps):
        out += c * np.roll(x, -m * hole, axis=0)
    return out


def roll_adjoint(a, d, lo, hi, hole):
    x = np.zeros_like(a)
    for m in range(len(lo)):
        x += lo[m] * np.roll(a, m * hole, axis=0)
        x += hi[m] * np.roll(d, m * hole, axis=0)
    return x


def valid_levels(n):
    return [j for j in range(1, n.bit_length() + 1) if 2 ** j <= n]


# n = 8 at 3 levels puts db2's last tap at 3 * 4 = 12 > n, so the
# periodic shift wraps more than once across the taps
KERNEL_CASES = [(filt, n, batch) for filt in ("haar", "db2")
                for n in (2, 3, 5, 8, 13, 16) for batch in (None, 3)]


@pytest.mark.parametrize("filt, n, batch", KERNEL_CASES)
def test_undecimated_kernels_match_roll_reference(filt, n, batch):
    rng = np.random.default_rng(n)
    shape = (n,) if batch is None else (n, batch)
    x, d = rng.normal(size=shape), rng.normal(size=shape)
    lo, hi = _filter_pair(filt)
    for level in valid_levels(n):
        hole = 2 ** (level - 1)
        for taps in (lo, hi):
            assert np.array_equal(_undec_analysis(x, taps, hole),
                                  roll_analysis(x, taps, hole))
        assert np.array_equal(_undec_adjoint(x, d, lo, hi, hole),
                              roll_adjoint(x, d, lo, hi, hole))


@pytest.mark.parametrize("filt, n, batch", KERNEL_CASES)
def test_undecimated_transforms_match_roll_reference(monkeypatch, filt, n,
                                                     batch):
    rng = np.random.default_rng(100 + n)
    x = rng.uniform(0, 5, size=(n,) if batch is None else (n, batch))

    def run(spec):
        pyr = dwt_forward(x, spec)
        atoms = [wavelet_atom(spec, level, k, n, band)
                 for level in range(1, spec.levels + 1) for k in range(n)
                 for band in ("detail", "approximation")]
        return [pyr.approximation, *pyr.details, dwt_inverse(pyr), *atoms]

    for levels in valid_levels(n):
        spec = WaveletSpec(filt, levels, "undecimated")
        with monkeypatch.context() as patched:
            patched.setattr(wavelet, "_undec_analysis", roll_analysis)
            patched.setattr(wavelet, "_undec_adjoint", roll_adjoint)
            expected = run(spec)
        got = run(spec)
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert np.array_equal(g, e)


# Independent references for the a-trous path: strided decimated kernels
# and the unhalved transpose walked level by level for atoms.

def strided_analysis(x, taps):
    """out[k] = sum_m taps[m] * x[(2k + m) % n]."""
    n = x.shape[0]
    half = np.arange(n // 2)
    out = np.zeros((n // 2,) + x.shape[1:])
    for m, c in enumerate(taps):
        out += c * x[(2 * half + m) % n]
    return out


def add_at_synthesis(a, d, lo, hi):
    """The transpose of strided_analysis on the pair (a, d)."""
    n = 2 * a.shape[0]
    half = np.arange(n // 2)
    x = np.zeros((n,) + a.shape[1:])
    for m in range(len(lo)):
        np.add.at(x, (2 * half + m) % n, lo[m] * a + hi[m] * d)
    return x


def adjoint_walk_atom(spec, level, k, n, band):
    """The unhalved transpose walked down from a coefficient indicator."""
    lo, hi = _filter_pair(spec.filter)
    decimated = spec.mode == "decimated"
    vec = np.zeros(n // 2 ** level if decimated else n)
    vec[k] = 1.0
    for depth in range(level, 0, -1):
        zeros = np.zeros_like(vec)
        top_detail = depth == level and band == "detail"
        a_in, d_in = (zeros, vec) if top_detail else (vec, zeros)
        if decimated:
            vec = add_at_synthesis(a_in, d_in, lo, hi)
        else:
            vec = roll_adjoint(a_in, d_in, lo, hi, 2 ** (depth - 1))
    return vec


DECIMATED_CASES = [(filt, levels, batch) for filt in ("haar", "db2")
                   for levels in (1, 2, 3) for batch in (None, 3)]


@pytest.mark.parametrize("filt, levels, batch", DECIMATED_CASES)
def test_decimated_transforms_match_strided_reference(filt, levels, batch):
    rng = np.random.default_rng(200 + levels)
    x = rng.uniform(0, 5, size=(32,) if batch is None else (32, batch))
    lo, hi = _filter_pair(filt)
    pyr = dwt_forward(x, WaveletSpec(filt, levels, "decimated"))
    a = x
    for d in pyr.details:
        assert np.array_equal(d, strided_analysis(a, hi))
        a = strided_analysis(a, lo)
    assert np.array_equal(pyr.approximation, a)
    for d in reversed(pyr.details):
        a = add_at_synthesis(a, d, lo, hi)
    rec = dwt_inverse(pyr)
    assert np.max(np.abs(rec - a)) <= 1e-14 * np.max(np.abs(a))


@pytest.mark.parametrize("mode", ["decimated", "undecimated"])
@pytest.mark.parametrize("filt", ["haar", "db2"])
def test_atoms_match_adjoint_walk_reference(mode, filt):
    n = 32
    for levels in (1, 2, 3):
        spec = WaveletSpec(filt, levels, mode)
        for level in range(1, levels + 1):
            for band in ("detail", "approximation"):
                for k in range(n // 2 ** level if mode == "decimated" else n):
                    assert np.array_equal(
                        wavelet_atom(spec, level, k, n, band),
                        adjoint_walk_atom(spec, level, k, n, band))
