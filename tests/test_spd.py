import warnings

import numpy as np
import pytest
from scipy import stats

import poissonridge.spd as spd
from poissonridge.spd import (SpdParams, _exact_coeff_pmf, _tv_between,
                              moment_match, spd_pmf, wavelet_coeff_dist)
from poissonridge.wavelet import WaveletSpec, wavelet_atom

RT2 = np.sqrt(2.0)


def test_moment_match_haar_pair_frozen():
    # psi = [1, -1]/sqrt(2), lam = [3, 5]: each side has one coordinate,
    # so alpha = |psi| and the matched rate is the raw rate
    params = moment_match(np.array([1, -1]) / RT2, np.array([3.0, 5.0]))
    assert params.alpha_plus == pytest.approx(1 / RT2)
    assert params.lambda_plus == pytest.approx(3.0)
    assert params.alpha_minus == pytest.approx(1 / RT2)
    assert params.lambda_minus == pytest.approx(5.0)


def test_moment_match_preserves_first_two_moments():
    rng = np.random.default_rng(0)
    psi = rng.normal(size=12)
    lam = rng.uniform(0.1, 6.0, size=12)
    params = moment_match(psi, lam)
    for sign, alpha, rate in (
            (psi >= 0, params.alpha_plus, params.lambda_plus),
            (psi < 0, params.alpha_minus, params.lambda_minus)):
        m = np.sum(lam[sign] * np.abs(psi[sign]))
        v = np.sum(lam[sign] * psi[sign] ** 2)
        assert alpha * rate == pytest.approx(m, rel=1e-12)
        assert alpha ** 2 * rate == pytest.approx(v, rel=1e-12)


def test_moment_match_validation():
    with pytest.raises(ValueError):
        moment_match(np.ones(3), np.ones(4))
    with pytest.raises(ValueError):
        moment_match(np.ones(3), np.array([1.0, -0.5, 2.0]))
    with pytest.raises(ValueError):
        moment_match(np.ones((2, 2)), np.ones((2, 2)))
    # NaN passes a sign check and would come back as NaN parameters
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="intensities must be finite"):
            moment_match(np.ones(3), np.array([1.0, bad, 2.0]))
    # a NaN weight joins neither sign class and would be dropped unseen
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="atom weights must be finite"):
            moment_match(np.array([bad, -1.0, 1.0]), np.array([1.0, 1.0, 2.0]))
    # finite inputs whose side sums overflow fail here, with no
    # RuntimeWarning, not as NaN parameters inside SpdParams
    for atom, rates in (([10.0, -1.0], [1e308, 1.0]),
                        ([1e200, -1.0], [0.0, 1.0])):
        with pytest.raises(ValueError, match="overflow a side sum"):
            moment_match(atom, rates)


def test_moment_match_survives_an_overflowing_square():
    # m = 1e200 and v = 1e100 are finite, and so is m^2 / v = 1e300,
    # although the intermediate m * m overflows
    params = moment_match([1e-100, -1.0], [1e300, 1.0])
    assert params.lambda_plus == pytest.approx(1e300, rel=1e-15)
    assert params.alpha_plus == pytest.approx(1e-100, rel=1e-15)
    assert (params.alpha_minus, params.lambda_minus) == (1.0, 1.0)


@pytest.mark.parametrize("weight", [1e-100, 1e-80])
def test_moment_match_survives_an_underflowing_square(weight):
    # psi = lam = weight gives m = weight^2, v = weight^3 and
    # m^2 / v = weight, but m * m is 0 at 1e-100 (a zero rate with a
    # non-zero scale) and subnormal at 1e-80 (1e-5 relative error)
    params = moment_match([weight], [weight])
    assert abs(params.lambda_plus - weight) <= 1e-15 * weight
    assert abs(params.alpha_plus - weight) <= 1e-15 * weight


@pytest.mark.parametrize("field", range(4))
@pytest.mark.parametrize("bad", [-2.0, -1e-300, np.nan, np.inf, -np.inf])
def test_spd_params_reject_negative_or_non_finite_fields(field, bad):
    # a negative rate used to read as rate 0, a NaN as a 0.0 pmf after an
    # invalid cast, and an inf rate failed inside the tail cut
    values = [1.0, 1.0, 1.0, 1.0]
    values[field] = bad
    with pytest.raises(ValueError, match="must be finite and >= 0"):
        SpdParams(*values)


def test_one_sided_and_empty_atoms():
    params = moment_match(np.array([0.5, 0.5]), np.array([1.0, 2.0]))
    assert params.alpha_minus == 0.0 and params.lambda_minus == 0.0
    assert params.alpha_plus == pytest.approx(0.5)
    assert params.lambda_plus == pytest.approx(3.0)
    zero = moment_match(np.zeros(4), np.ones(4))
    assert zero == SpdParams(0.0, 0.0, 0.0, 0.0)
    assert spd_pmf(zero, 0.0) == pytest.approx(1.0)
    assert _exact_coeff_pmf(np.zeros(3), [1.0, 2.0, 3.0]) == {0.0: 1.0}


def test_unit_weights_reduce_to_skellam():
    # scipy's Skellam law is an independent oracle for alpha = 1 sides
    params = moment_match(np.array([1.0, -1.0]), np.array([2.0, 3.0]))
    ks = np.arange(-8, 9)
    got = spd_pmf(params, ks.astype(float))
    want = stats.skellam.pmf(ks, 2.0, 3.0)
    assert np.allclose(got, want, atol=1e-13)
    # frozen special value: P(W = 0) at equal unit rates is e^-2 I0(2)
    eq = moment_match(np.array([1.0, -1.0]), np.array([1.0, 1.0]))
    assert spd_pmf(eq, 0.0) == pytest.approx(0.30850832255367105, abs=1e-12)


def test_pmf_one_sided_is_scaled_poisson():
    params = moment_match(np.array([0.5, 0.5]), np.array([1.0, 2.0]))
    for k in range(12):
        assert spd_pmf(params, 0.5 * k) == pytest.approx(
            stats.poisson.pmf(k, 3.0), abs=1e-13)
    # off-lattice values have no mass
    assert spd_pmf(params, 0.3) == 0.0
    # a minus side alone mirrors its Poisson law
    assert spd_pmf(SpdParams(0.0, 0.0, 1.0, 2.0), -1.0) == pytest.approx(
        stats.poisson.pmf(1, 2.0), abs=1e-15)


def test_pmf_sums_to_one_over_lattice():
    params = moment_match(np.array([1, 1, -1, -1]) / 2.0,
                          np.array([2.0, 1.0, 0.5, 1.5]))
    p = np.arange(0, 41)
    m = np.arange(0, 41)
    values = np.unique(np.round(
        params.alpha_plus * p[:, None] - params.alpha_minus * m[None, :], 9))
    total = spd_pmf(params, values).sum()
    assert total == pytest.approx(1.0, abs=1e-9)


def test_pmf_validation():
    params = moment_match(np.array([1.0, -1.0]), np.array([1.0, 1.0]))
    # the match tolerance, the tail cut and the variant are fixed
    with pytest.raises(TypeError):
        spd_pmf(params, 0.0, tol=1e-6)
    with pytest.raises(TypeError):
        spd_pmf(params, 0.0, variant="difference")
    with pytest.raises(TypeError):
        wavelet_coeff_dist([1.0, -1.0], [1.0, 1.0], variant="difference")
    with pytest.raises(TypeError):
        wavelet_coeff_dist([1.0, -1.0], [1.0, 1.0], tail=1e-9)
    one_sided = moment_match(np.array([0.5, 0.5]), np.array([1.0, 2.0]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="atom weights must be finite"):
            wavelet_coeff_dist([bad, -1.0, 1.0], [1.0, 1.0, 2.0])
        # a non-finite outcome matches no lattice point: it would read 0.0
        # after an invalid cast to the integer count m
        for p in (params, one_sided):
            with pytest.raises(ValueError, match="w must be finite"):
                spd_pmf(p, bad)
            with pytest.raises(ValueError, match="w must be finite"):
                spd_pmf(p, np.array([0.0, bad, 1.0]))


@pytest.mark.parametrize("lam", [0.5, 2.0, 4.0, 10.0])
def test_equal_weight_haar_atom_model_is_exact(lam):
    # equal |psi| per sign class collapses each side without error, so
    # the modeled pmf coincides with the exact coefficient law
    atom = np.array([1.0, -1.0]) / RT2
    _, tv = wavelet_coeff_dist(atom, np.full(2, lam))
    assert tv is not None and tv <= 1e-10


def test_deeper_haar_atom_still_exact():
    spec = WaveletSpec("haar", 2, "decimated")
    atom = wavelet_atom(spec, 2, 0, 8, band="detail")
    keep = np.abs(atom) > 1e-15
    _, tv = wavelet_coeff_dist(atom[keep], np.full(int(keep.sum()), 3.0))
    assert tv <= 1e-10


def test_mixed_weight_atom_reports_honest_distance():
    # db2 atoms carry four distinct magnitudes; the two-scale model
    # puts its mass on a different lattice, so the distance is large
    spec = WaveletSpec("db2", 1, "decimated")
    atom = wavelet_atom(spec, 1, 1, 8, band="detail")
    _, tv = wavelet_coeff_dist(atom, np.full(8, 2.0))
    assert tv is not None
    assert 0.5 < tv <= 1.0


def test_model_pmf_matches_direct_lattice_sum():
    # reference: the model's pmf summed over the (p, m) count lattice
    atom = np.array([0.3, 0.7, -0.2])
    lam = np.array([2.0, 1.0, 3.0])
    params, tv = wavelet_coeff_dist(atom, lam)
    counts = np.arange(60)
    p_pmf = stats.poisson.pmf(counts, params.lambda_plus)
    m_pmf = stats.poisson.pmf(counts, params.lambda_minus)
    model = {}
    for p, prob_p in zip(counts, p_pmf):
        for m, prob_m in zip(counts, m_pmf):
            key = round(params.alpha_plus * p - params.alpha_minus * m, 9)
            model[key] = model.get(key, 0.0) + prob_p * prob_m
    exact = _exact_coeff_pmf(atom, lam)
    assert 0.5 < tv and tv == pytest.approx(_tv_between(exact, model), abs=1e-11)


def test_dist_matches_direct_moment_match():
    atom = np.array([0.3, -0.7, 0.3])
    lam = np.array([1.0, 2.0, 3.0])
    params, _ = wavelet_coeff_dist(atom, lam)
    assert params == moment_match(atom, lam)


def test_zero_rate_sides_never_reach_the_tail_cut(monkeypatch):
    # the tail cut takes a positive rate only: moment_match gives a side
    # without mass (0, 0), and both enumerations skip zero rates
    tail_cut = spd._tail_cut

    def positive_only(lam):
        assert lam > 0, f"tail cut of rate {lam!r}"
        return tail_cut(lam)

    monkeypatch.setattr(spd, "_tail_cut", positive_only)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        params, tv = wavelet_coeff_dist([1.0, -1.0, 0.5], [2.0, 0.0, 0.0])
        assert params == SpdParams(1.0, 2.0, 0.0, 0.0)
        # one Po(2) count with unit weight: the model is the exact law
        assert tv <= 1e-12
        params, tv = wavelet_coeff_dist([1.0, 0.5], [2.0, 3.0])
        assert params.alpha_minus == 0.0 and params.lambda_minus == 0.0
        assert 0.0 <= tv <= 1.0
        assert spd_pmf(params, 0.0) == pytest.approx(
            stats.poisson.pmf(0, params.lambda_plus), abs=1e-15)


def test_oversized_exact_enumeration_reports_no_distance():
    # three distinct weights at rate 1000 need about 1230**3 lattice
    # points, past the 5 M the exact enumeration takes on
    atom, lam = [1.0, 2.0, 3.0], [1000.0, 1000.0, 1000.0]
    assert _exact_coeff_pmf(atom, lam) is None
    params, tv = wavelet_coeff_dist(atom, lam)
    assert params == moment_match(atom, lam) and tv is None
