import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2, poisson

import poissonridge.harness as harness
from poissonridge.harness import (DistReport, LineFit, _merge_sparse_bins,
                                  _predicted_variance,
                                  run_distribution_experiment,
                                  variance_vs_intensity)
from poissonridge.phantoms import (Bar, PhantomSpec, make_phantom,
                                  sample_poisson)
from poissonridge.radon import (TransformConfig, drt_gdb, drt_rotation,
                                propagate_intensity)
from poissonridge.seeding import derive_rng
from poissonridge.wavelet import WaveletSpec, dwt_forward, wavelet_atom

SPEC = PhantomSpec(kind="inhomogeneous", size=16, background_intensity=0.5,
                   structure_gain=10.0)
WAV = WaveletSpec("haar", 1, "undecimated")


@pytest.fixture(scope="module")
def gdb_reports():
    # shared 200-sample run: radon band, one detail level, approximation
    return run_distribution_experiment(SPEC, TransformConfig("gdb"), 200, 0,
                                       wavelet=WAV, gof=True)


def test_report_order_and_labels(gdb_reports):
    assert [(r.band, r.level) for r in gdb_reports] == [
        ("radon", 0), ("detail", 1), ("approximation", 1)]
    for r in gdb_reports:
        assert r.samples == 200
        assert r.n_coefficients > 0


def test_radon_band_is_its_own_prediction(gdb_reports):
    r = gdb_reports[0]
    # raw radon coefficients are Poisson sums: predicted mean = variance
    assert np.array_equal(r.predicted_mean, r.predicted_variance)
    assert r.n_coefficients == int((r.predicted_mean > 0).sum())


def test_radon_empirical_means_within_five_sigma(gdb_reports):
    r = gdb_reports[0]
    rates = r.predicted_mean
    ok = rates > 0
    z = np.abs(r.empirical_mean - rates)[ok] / np.sqrt(rates[ok] / r.samples)
    assert z.max() <= 5.0


def test_radon_mean_variance_ratio_near_one(gdb_reports):
    lo, hi = gdb_reports[0].mean_var_ratio_ci
    assert 0.95 <= lo <= hi <= 1.05
    assert lo <= gdb_reports[0].mean_var_ratio <= hi


def test_radon_mean_diff_ci_contains_zero(gdb_reports):
    lo, hi = gdb_reports[0].mean_diff_ci
    assert lo <= 0.0 <= hi


def test_radon_gof_mostly_passes(gdb_reports):
    r = gdb_reports[0]
    assert r.gof_tested > 1000
    # 1% level test: expect ~99% pass on truly Poisson coefficients
    assert r.gof_pass_fraction >= 0.95


def test_radon_variance_tracks_intensity(gdb_reports):
    r = gdb_reports[0]
    assert 0.9 <= r.slope <= 1.1
    assert r.r_squared >= 0.95
    assert abs(r.intercept) < 0.2


def test_detail_band_predictions(gdb_reports):
    d = gdb_reports[1]
    rates = gdb_reports[0].predicted_mean
    pyr = dwt_forward(rates, WAV)
    # predicted band mean is the transform of the rate sinogram
    assert np.allclose(d.predicted_mean, pyr.details[0], atol=1e-12)
    # one-level Haar detail variance is the two-pixel rate average
    want = (rates + np.roll(rates, -1, axis=0)) / 2
    assert np.allclose(d.predicted_variance, want, atol=1e-12)


def test_detail_variance_matches_prediction(gdb_reports):
    d = gdb_reports[1]
    lo, hi = d.var_pred_ratio_ci
    assert 0.95 <= lo <= hi <= 1.05
    assert 0.9 <= d.slope <= 1.1 and d.r_squared >= 0.95


def test_approximation_ratio_is_sqrt_two(gdb_reports):
    # approximation coefficients scale mean by sqrt(2) per level but
    # variance by 2, so mean over variance lands on sqrt(2)
    a = gdb_reports[2]
    assert np.allclose(a.predicted_mean,
                       dwt_forward(gdb_reports[0].predicted_mean, WAV).approximation,
                       atol=1e-12)
    assert abs(a.mean_var_ratio - np.sqrt(2.0)) <= 0.05


def test_experiment_is_deterministic():
    kw = dict(wavelet=WAV)
    a = run_distribution_experiment(SPEC, TransformConfig("gdb"), 100, 5, **kw)
    b = run_distribution_experiment(SPEC, TransformConfig("gdb"), 100, 5, **kw)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.empirical_mean, rb.empirical_mean)
        assert np.array_equal(ra.empirical_variance, rb.empirical_variance)
        assert ra.mean_diff == rb.mean_diff
    c = run_distribution_experiment(SPEC, TransformConfig("gdb"), 100, 6)
    assert not np.array_equal(a[0].empirical_mean, c[0].empirical_mean)


def test_mean_diff_ci_width_shrinks_like_root_samples():
    small = run_distribution_experiment(SPEC, TransformConfig("gdb"), 100, 3)[0]
    large = run_distribution_experiment(SPEC, TransformConfig("gdb"), 400, 3)[0]
    w_small = small.mean_diff_ci[1] - small.mean_diff_ci[0]
    w_large = large.mean_diff_ci[1] - large.mean_diff_ci[0]
    # quadrupling the samples should halve the width
    assert 1.7 <= w_small / w_large <= 2.3


def test_rotation_nearest_is_poisson_too():
    cfg = TransformConfig("rotation", angles=12, interp="nearest")
    r = run_distribution_experiment(SPEC, cfg, 150, 1, gof=True)[0]
    lo, hi = r.mean_var_ratio_ci
    assert 0.9 <= lo <= hi <= 1.1
    assert r.gof_pass_fraction >= 0.95
    assert 0.85 <= r.slope <= 1.2 and r.r_squared >= 0.9


def test_validation_errors():
    with pytest.raises(ValueError, match="at least 100"):
        run_distribution_experiment(SPEC, TransformConfig("gdb"), 50, 0)
    # a float count used to reach range() (TypeError) or be truncated
    # by the seed derivation
    for samples, seed, message in [(100.5, 0, "samples must be an integer"),
                                   (100, 1.5, "seed must be an integer"),
                                   (100, -1, "seed must be >= 0")]:
        with pytest.raises(ValueError, match=message):
            run_distribution_experiment(SPEC, TransformConfig("gdb"), samples,
                                        seed)
    # linear interpolation spreads mass, coefficients are not integers
    cfg = TransformConfig("rotation", angles=12, interp="linear")
    with pytest.raises(ValueError, match="integer"):
        run_distribution_experiment(SPEC, cfg, 100, 0, gof=True)


@pytest.mark.parametrize("transform", [
    TransformConfig("gdb"), TransformConfig("rotation", 12, "nearest")])
def test_decimated_wavelet_rejected_before_sampling(monkeypatch, transform):
    # Radon columns have an odd number of offsets, which a decimated
    # transform can never analyze: fail at entry, pointing at the fix
    def never(*args, **kwargs):
        raise AssertionError("sampling started with a decimated wavelet")

    for name in ("make_phantom", "derive_rng", "propagate_intensity"):
        monkeypatch.setattr(harness, name, never)
    with pytest.raises(ValueError, match="odd length.*undecimated"):
        run_distribution_experiment(SPEC, transform, 100, 0,
                                    wavelet=WaveletSpec("haar", 1, "decimated"))


@pytest.mark.parametrize("transform, length", [
    (TransformConfig("gdb"), 7), (TransformConfig("rotation", 12, "nearest"), 11)])
def test_over_deep_wavelet_rejected_before_projecting(monkeypatch, transform,
                                                      length):
    def never(*args, **kwargs):
        raise AssertionError("projected with an impossible depth")

    for name in ("derive_rng", "propagate_intensity"):
        monkeypatch.setattr(harness, name, never)
    spec = PhantomSpec("inhomogeneous", 4, 0.5, 10.0, structures=[])
    with pytest.raises(ValueError, match=f"at least 32; got {length}"):
        run_distribution_experiment(spec, transform, 100, 0,
                                    wavelet=WaveletSpec("haar", 5, "undecimated"))


@pytest.mark.parametrize("kind", ["homogeneous", "inhomogeneous"])
@pytest.mark.parametrize("transform", [
    TransformConfig("gdb"), TransformConfig("rotation", 12, "nearest")])
def test_zero_rate_phantom_rejected_before_sampling(monkeypatch, kind,
                                                    transform):
    # all-zero rates give all-zero samples and an empty scatter
    def never(*args, **kwargs):
        raise AssertionError("sampled a phantom with no positive rate")

    monkeypatch.setattr(harness, "derive_rng", never)
    spec = PhantomSpec(kind, 8, background_intensity=0.0)
    with pytest.raises(ValueError, match="every propagated rate is 0"):
        run_distribution_experiment(spec, transform, 100, 0, wavelet=WAV,
                                    gof=True)


@pytest.mark.parametrize("transform", [
    TransformConfig("gdb"), TransformConfig("rotation", 12, "nearest")])
def test_band_without_positive_prediction_rejected_before_sampling(
        monkeypatch, transform):
    # one pixel at the least subnormal rate: its Haar detail variance,
    # 0.5 * 5e-324, rounds to 0, which would leave that band no
    # coefficient to average each sample's deviation over
    def never(*args, **kwargs):
        raise AssertionError("sampled a band with no positive prediction")

    monkeypatch.setattr(harness, "derive_rng", never)
    spec = PhantomSpec("inhomogeneous", 2, 5e-324, 0.0,
                       structures=[Bar(0.5, 0.0, 0.5, 1.0),
                                   Bar(0.0, 0.5, 0.5, 0.5)])
    assert np.count_nonzero(make_phantom(spec)) == 1
    with pytest.raises(ValueError, match="prediction underflows to 0"):
        run_distribution_experiment(spec, transform, 100, 0, wavelet=WAV)


def test_variance_vs_intensity_inputs(gdb_reports):
    r = gdb_reports[0]
    fit = variance_vs_intensity(r)
    assert isinstance(fit, LineFit)
    assert fit.slope == r.slope and fit.r_squared == r.r_squared
    # pooling the scatters equals fitting the stacked array
    pooled = variance_vs_intensity(list(gdb_reports))
    stacked = variance_vs_intensity(np.vstack([x.scatter for x in gdb_reports]))
    assert pooled == stacked
    with pytest.raises(ValueError):
        variance_vs_intensity(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        variance_vs_intensity(np.zeros((5, 3)))
    # a non-finite point would turn the whole fit into LineFit(nan, nan, nan)
    for bad in (np.nan, np.inf, -np.inf):
        for col in (0, 1):
            holed = r.scatter.copy()
            holed[2, col] = bad
            with pytest.raises(ValueError, match="scatter points must be finite"):
                variance_vs_intensity(holed)


def test_constant_driver_scatter_gets_no_fit():
    # a 1 px homogeneous phantom gives 4 radon drivers, all 2.0; no line
    # is determined, so the report carries the NaN fit, not lstsq's
    # minimum-norm answer
    r = run_distribution_experiment(PhantomSpec("homogeneous", 1, 2.0),
                                    TransformConfig("gdb"), 100, 0)[0]
    assert r.scatter.shape == (4, 2) and np.all(r.scatter[:, 0] == 2.0)
    assert all(math.isnan(v) for v in (r.slope, r.intercept, r.r_squared))
    for scatter in (r, np.column_stack([np.full(5, 2.0), np.arange(5.0)])):
        with pytest.raises(ValueError, match="distinct intensities"):
            variance_vs_intensity(scatter)


@pytest.mark.parametrize("level", [0.0, 1e-7, 0.1, 123.456, 1e6, 1e300])
def test_horizontal_scatter_is_a_perfect_fit_at_any_level(level):
    # lstsq leaves rounding in the residuals that scales with y, and the
    # rounded mean of equal values need not equal them
    fit = variance_vs_intensity(
        np.column_stack([np.arange(5.0), np.full(5, level)]))
    assert fit.r_squared == 1.0
    assert fit.intercept == pytest.approx(level, rel=1e-12)


@pytest.mark.parametrize("exponent", [-1000, -600, 600, 1000])
def test_r_squared_does_not_depend_on_the_scale_of_y(exponent):
    # unscaled, these squares underflow to 0 or overflow to inf
    x = np.arange(5.0)
    y = np.array([1.0, 3.0, 2.0, 1.0, 0.0])
    want = variance_vs_intensity(np.column_stack([x, y])).r_squared
    got = variance_vs_intensity(
        np.column_stack([x, np.ldexp(y, exponent)])).r_squared
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("filt", ["haar", "db2"])
@pytest.mark.parametrize("levels", [1, 2, 3])
def test_one_positive_rate_gives_every_band_driver_a_positive_entry(filt,
                                                                     levels):
    # _BandSums averages each sample's deviation over the coefficients
    # whose driver is positive; one positive rate anywhere in a column
    # leaves a positive driver in every band of that column, so the
    # harness's entry check rejects only rates that are 0 or a few ulps
    # above it (see
    # test_band_without_positive_prediction_rejected_before_sampling)
    spec = WaveletSpec(filt, levels, "undecimated")
    n = 15  # odd, as Radon columns are
    for rate in (1.0, 1e-300):
        rates = np.diag(np.full(n, rate))
        drivers = [rates, dwt_forward(rates, spec).approximation]
        drivers += [_predicted_variance(rates, spec, "detail", level)
                    for level in range(1, levels + 1)]
        for driver in drivers:
            assert (driver > 0).any(axis=0).all()


def test_normal_ci_of_zero_and_one_values():
    assert all(math.isnan(v) for v in harness._normal_ci([]))
    assert harness._normal_ci([2.5]) == (2.5, 2.5)


# --- one sample at a time: the loop the batched harness must reproduce ----

def greedy_merge(expected, minimum=5.0):
    # the straightforward greedy loop: fold the first smallest group into
    # its smaller neighbor (left on ties) until every group reaches minimum
    groups = [[k] for k in range(len(expected))]
    totals = [float(e) for e in expected]
    while len(totals) > 1 and min(totals) < minimum:
        i = int(np.argmin(totals))
        if i == 0:
            j = 1
        elif i == len(totals) - 1:
            j = i - 1
        else:
            j = i - 1 if totals[i - 1] <= totals[i + 1] else i + 1
        lo, hi = sorted((i, j))
        groups[lo] = groups[lo] + groups[hi]
        totals[lo] += totals[hi]
        del groups[hi], totals[hi]
    return groups


def expected_counts(lam, samples, top):
    expected = np.empty(top + 1)
    expected[:top] = samples * poisson.pmf(np.arange(top), lam)
    expected[top] = samples * poisson.sf(top - 1, lam)
    return expected


def gof_per_rate_masks(hist, rates, samples, alpha=0.01):
    flat_hist = hist.reshape(-1, hist.shape[-1])
    flat_rates = rates.ravel()
    usable = flat_rates > 0
    top = hist.shape[-1] - 1
    passed = tested = 0
    keys = np.round(flat_rates[usable], 9)
    for lam in np.unique(keys):
        rows = flat_hist[usable][keys == lam]
        expected = expected_counts(lam, samples, top)
        groups = greedy_merge(expected)
        if len(groups) < 2:
            continue
        folded = np.stack([rows[:, idx].sum(axis=1) for idx in groups], axis=1)
        exp_folded = np.array([expected[idx].sum() for idx in groups])
        stat = ((folded - exp_folded) ** 2 / exp_folded).sum(axis=1)
        passed += int((stat <= chi2.ppf(1.0 - alpha, len(groups) - 1)).sum())
        tested += rows.shape[0]
    return (passed / tested, tested) if tested else (float("nan"), 0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), samples=st.integers(20, 400),
       distinct=st.integers(1, 12))
def test_gof_fraction_matches_a_loop_over_the_rates(seed, samples, distinct):
    # groups planned once for every rate and outcomes counted straight
    # into them must count exactly what a histogram folded one rate at a
    # time counts; a third of the coefficients draw at 1.5x their rate,
    # so both passes and failures occur
    rng = np.random.default_rng(seed)
    levels = np.concatenate([[0.0], rng.uniform(1e-3, 30.0, distinct)])
    rates = rng.choice(levels, size=(9, 7))
    top = int(poisson.isf(1e-9, max(rates.max(), 1e-3))) + 1
    drawn = rates * rng.choice([1.0, 1.0, 1.5], size=rates.shape)
    vals = rng.poisson(drawn[..., None], rates.shape + (samples,))
    hist = (np.clip(vals, 0, top)[..., None] == np.arange(top + 1)).sum(axis=-2)
    gof = harness._GofCounts(rates, samples)
    assert gof.top == top
    # in uneven batches, as the harness adds them
    for part in np.array_split(vals.astype(float), 3, axis=-1):
        gof.add(part)
    frac, tested = gof.pass_fraction()
    want_frac, want_tested = gof_per_rate_masks(hist, rates, samples)
    assert tested == want_tested
    assert frac == want_frac or (tested == 0 and math.isnan(frac)
                                 and math.isnan(want_frac))


def test_gof_outcomes_above_top_land_in_the_overflow_group():
    rates = np.full((2, 3), 4.0)
    samples = 200
    gof = harness._GofCounts(rates, samples)
    (first, n, exp_folded), = gof.blocks
    vals = np.full(rates.shape + (samples,), 4.0)
    vals[0, 1, :] = gof.top + 7.0       # every outcome far above top
    vals[1, 2, :50] = gof.top + 0.4     # rounds to top itself
    gof.add(vals)
    folded = gof.counts[first:first + n * exp_folded.size].reshape(n, -1)
    assert np.array_equal(folded.sum(axis=1), np.full(n, samples))
    hist = np.zeros(rates.shape + (gof.top + 1,), dtype=np.int64)
    for idx in np.ndindex(rates.shape):
        hist[idx] = np.bincount(np.clip(np.rint(vals[idx]).astype(int), 0,
                                        gof.top), minlength=gof.top + 1)
    # coefficient (0, 1) has every count in its last group: it fails
    assert folded[1, -1] == samples and folded[1, :-1].sum() == 0
    assert folded[5, -1] >= 50
    assert gof.pass_fraction() == gof_per_rate_masks(hist, rates, samples)
    assert gof.pass_fraction()[1] == rates.size


def test_gof_leaves_rate_zero_and_single_group_rates_untested():
    # a rate of 1e-3 over 100 samples expects 0.1 nonzero outcomes in
    # all, so its bins pool into one group and it has nothing to test
    rates = np.array([[0.0, 1e-3, 6.0],
                      [6.0, 0.0, 1e-3]])
    samples = 100
    gof = harness._GofCounts(rates, samples)
    assert _merge_sparse_bins(expected_counts(1e-3, samples, gof.top)) == [
        list(range(gof.top + 1))]
    vals = np.full(rates.shape + (samples,), 6.0)
    vals[rates == 0.0] = 3.0            # outcomes a rate of 0 cannot give
    gof.add(vals)
    frac, tested = gof.pass_fraction()
    assert tested == 2
    # untested outcomes share the one spare slot and no group row
    assert gof.counts[0] == 4 * samples
    assert gof.counts[1:].sum() == 2 * samples
    untested = harness._GofCounts(np.where(rates == 6.0, 0.0, rates),
                                  samples)
    untested.add(vals)
    assert untested.counts.shape == (1,)
    frac, tested = untested.pass_fraction()
    assert tested == 0 and math.isnan(frac)


def dense_atoms(spec, level, band, n):
    # undecimated: one atom per position
    return np.stack([wavelet_atom(spec, level, k, n, band=band)
                     for k in range(n)])


def one_sample_at_a_time(spec, transform, samples, seed, wavelet):
    """Per-band sums and predictions, one projection per sample."""
    intensity = make_phantom(spec)
    rates = propagate_intensity(intensity, transform).data
    bands = [("radon", 0, rates, rates, rates)]
    if wavelet is not None:
        pyr = dwt_forward(rates, wavelet)
        for level in range(1, wavelet.levels + 1):
            var = dense_atoms(wavelet, level, "detail", rates.shape[0]) ** 2 @ rates
            bands.append(("detail", level, pyr.details[level - 1], var, var))
        atoms = dense_atoms(wavelet, wavelet.levels, "approximation",
                            rates.shape[0])
        bands.append(("approximation", wavelet.levels, pyr.approximation,
                      atoms ** 2 @ rates, pyr.approximation))
    sums = [dict(s1=0.0, s2=0.0, d1=0.0, d2=0.0) for _ in bands]
    top = int(poisson.isf(1e-9, max(rates.max(), 1e-3))) + 1
    hist = np.zeros((rates.size, top + 1), dtype=np.int64)
    for i in range(samples):
        counts = sample_poisson(intensity, rng=derive_rng(seed, "mc-sample", i))
        if transform.variant == "gdb":
            data = drt_gdb(counts).data
        else:
            data = drt_rotation(counts, angles=transform.angles,
                                interp=transform.interp).data
        np.add.at(hist, (np.arange(rates.size),
                         np.clip(np.rint(data).astype(np.int64).ravel(), 0, top)), 1)
        arrays = [data]
        if wavelet is not None:
            pyr = dwt_forward(data, wavelet)
            arrays += pyr.details + [pyr.approximation]
        for acc, arr, (_, _, mean, _, driver) in zip(sums, arrays, bands):
            acc["s1"] = acc["s1"] + arr
            acc["s2"] = acc["s2"] + arr * arr
            if (driver > 0).any():
                diff = float((arr - mean)[driver > 0].mean())
                acc["d1"] += diff
                acc["d2"] += diff * diff
    return bands, sums, gof_per_rate_masks(hist, rates, samples)


BATCH_CASES = [
    (TransformConfig("gdb"), 101, WaveletSpec("haar", 2, "undecimated")),
    (TransformConfig("gdb"), 203, WaveletSpec("db2", 2, "undecimated")),
    (TransformConfig("rotation", angles=12, interp="nearest"), 150, None),
]


@pytest.mark.parametrize("batch_bytes", [None, 1])
@pytest.mark.parametrize("transform, samples, wavelet", BATCH_CASES)
def test_batched_run_matches_one_sample_at_a_time(monkeypatch, batch_bytes,
                                                  transform, samples, wavelet):
    # 101 and 203 are not multiples of any batch size the default budget
    # gives here; a 1-byte budget forces one sample per batch
    if batch_bytes is not None:
        monkeypatch.setattr(harness, "_BATCH_BYTES", batch_bytes)
    reports = run_distribution_experiment(SPEC, transform, samples, 4,
                                          wavelet=wavelet, gof=True)
    bands, sums, (frac, tested) = one_sample_at_a_time(
        SPEC, transform, samples, 4, wavelet)
    assert [(r.band, r.level) for r in reports] == [b[:2] for b in bands]
    for r, (_, _, mean, var, driver), acc in zip(reports, bands, sums):
        emp_mean = acc["s1"] / samples
        emp_var = np.maximum((acc["s2"] - acc["s1"] * emp_mean) / (samples - 1), 0.0)
        assert np.array_equal(r.empirical_mean, emp_mean)
        assert np.array_equal(r.empirical_variance, emp_var)
        diff_mean = acc["d1"] / samples
        diff_sd = math.sqrt(max(acc["d2"] - acc["d1"] * diff_mean, 0.0)
                            / (samples - 1))
        half = 1.96 * diff_sd / math.sqrt(samples)
        assert r.mean_diff == diff_mean
        assert r.mean_diff_ci == (diff_mean - half, diff_mean + half)
        ok = (driver > 0) & (emp_var > 0)
        assert r.mean_var_ratio == float((emp_mean[ok] / emp_var[ok]).mean())
        assert np.array_equal(r.predicted_mean, mean)
        # the atom correlation rounds differently from the dense product
        assert np.allclose(r.predicted_variance, var, rtol=0, atol=1e-12)
        assert np.array_equal(r.predicted_variance == 0, var == 0)
    assert reports[0].gof_pass_fraction == frac
    assert reports[0].gof_tested == tested


# the harness takes undecimated wavelets only
# (test_decimated_wavelet_rejected_before_sampling)
@pytest.mark.parametrize("mode", ["undecimated"])
@pytest.mark.parametrize("filt", ["haar", "db2"])
@pytest.mark.parametrize("levels", [1, 2, 3])
def test_band_predictions_match_dense_atoms(mode, filt, levels):
    # a shifted atom per coefficient is exactly a row of the dense atom
    # matrix, so mean and variance agree with it to rounding, and the
    # variance has the same zeros (its terms are never negative)
    spec = WaveletSpec(filt, levels, mode)
    rng = np.random.default_rng(levels)
    rates = rng.uniform(0.0, 20.0, size=(32, 3))
    rates[5:15, 1] = 0.0
    rates[:, 2] = 0.0
    pyr = dwt_forward(rates, spec)
    for band, level in [("detail", lv) for lv in range(1, levels + 1)] + [
            ("approximation", levels)]:
        atoms = dense_atoms(spec, level, band, 32)
        var = _predicted_variance(rates, spec, band, level)
        mean = pyr.details[level - 1] if band == "detail" else pyr.approximation
        assert np.allclose(mean, atoms @ rates, rtol=0, atol=1e-12)
        assert np.allclose(var, atoms ** 2 @ rates, rtol=0, atol=1e-12)
        assert np.array_equal(var == 0, atoms ** 2 @ rates == 0)


@settings(max_examples=200, deadline=None)
@given(lam=st.floats(min_value=1e-6, max_value=200.0),
       samples=st.integers(min_value=100, max_value=2000))
def test_merge_matches_greedy_loop_on_poisson_bins(lam, samples):
    expected = expected_counts(lam, samples,
                               int(poisson.isf(1e-9, max(lam, 1e-3))) + 1)
    assert _merge_sparse_bins(expected) == greedy_merge(expected)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=12.0), min_size=1,
                max_size=40))
@example([0.0])
@example([3.0, 3.0, 3.0, 3.0])
@example([1.0, 9.0, 0.5, 0.5, 9.0, 1.0])
@example([6.0, 0.0, 6.0, 0.0, 6.0, 0.0, 2.0])
@example([2.5, 2.5, 0.1, 7.0, 0.1, 2.5, 2.5, 40.0, 0.2])
@example([4.0, 1.0, 4.0, 1.0, 4.0, 1.0, 4.0])
def test_merge_matches_greedy_loop_on_any_vector(expected):
    # multi-modal, tied and all-sparse vectors exercise every tie rule
    assert _merge_sparse_bins(expected) == greedy_merge(expected)
