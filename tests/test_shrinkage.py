import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from poissonridge.shrinkage import (BandNoiseModel, ThresholdPolicy,
                                    _grid_buckets, _sure_risks,
                                    estimate_band_noise, select_threshold,
                                    soft_threshold, threshold_grid)
from poissonridge.wavelet import FILTERS, WaveletSpec, dwt_forward, wavelet_atom


def test_soft_threshold_hand_values():
    assert soft_threshold(3.0, 1.0) == 2.0
    assert soft_threshold(-3.0, 1.0) == -2.0
    assert soft_threshold(0.5, 1.0) == 0.0
    assert np.allclose(soft_threshold(np.array([-2.0, -0.1, 0.0, 0.1, 2.0]), 0.5),
                       [-1.5, 0.0, 0.0, 0.0, 1.5])
    assert np.allclose(soft_threshold(np.array([4.0, -4.0]), 0.0), [4.0, -4.0])
    with pytest.raises(ValueError):
        soft_threshold(1.0, -0.5)
    # NaN is not >= 0 either; it used to shrink everything to NaN
    with pytest.raises(ValueError):
        soft_threshold(1.0, float("nan"))


@given(st.floats(-1e6, 1e6), st.floats(0, 1e6))
def test_soft_threshold_magnitude_law(w, tau):
    out = float(soft_threshold(w, tau))
    assert abs(out) == pytest.approx(max(abs(w) - tau, 0.0))
    assert out * w >= 0.0  # never flips sign


def test_estimate_band_noise_orthonormal_atom_variance_equals_rate():
    # approximation of a constant rate lam is gain * lam; the predicted
    # detail variance should come back as exactly lam at every level,
    # because orthonormal atoms have sum psi^2 = 1
    lam = 3.5
    for level in (1, 2):
        spec = WaveletSpec("haar", 2, "undecimated")
        gain = np.sqrt(2.0) ** level
        approx = np.full(16, gain * lam)
        model = estimate_band_noise(np.zeros(16), approx, spec, level)
        assert np.allclose(model.variances, lam)
        assert model.scale == pytest.approx(np.sqrt(lam))


@pytest.mark.parametrize("name", sorted(FILTERS))
@pytest.mark.parametrize("mode", ["decimated", "undecimated"])
def test_detail_atoms_have_unit_energy(name, mode):
    # estimate_band_noise takes the detail variance per unit rate,
    # sum psi^2, to be exactly 1; that holds only for orthonormal filters
    spec = WaveletSpec(name, 3, mode)
    for level in (1, 2, 3):
        atom = wavelet_atom(spec, level, 0, 64, band="detail")
        assert np.sum(atom ** 2) == pytest.approx(1.0, abs=1e-12)


def test_estimate_band_noise_clamps_negative_approximations():
    spec = WaveletSpec("haar", 1, "undecimated")
    model = estimate_band_noise(np.zeros(4), np.array([-5.0, -1.0, 0.0, 2.0]),
                                spec, 1)
    assert model.variances.min() == 0.0
    assert np.all(model.variances >= 0.0)


def test_estimate_band_noise_shape_mismatch():
    spec = WaveletSpec("haar", 1, "undecimated")
    with pytest.raises(ValueError):
        estimate_band_noise(np.zeros(4), np.zeros(5), spec, 1)


@pytest.mark.parametrize("level", [0, 3, 9, 1.5])
def test_estimate_band_noise_rejects_a_level_outside_the_spec(level):
    # the variances would be divided by the gain of a level never run
    spec = WaveletSpec("haar", 2, "undecimated")
    with pytest.raises(ValueError, match=r"level must be an integer in 1\.\.2"):
        estimate_band_noise(np.zeros(16), np.full(16, 5.0), spec, level)


def test_threshold_grid_layout():
    policy = ThresholdPolicy(grid_points=6, grid_max=5.0)
    assert np.allclose(threshold_grid(policy, 2.0), [0, 2, 4, 6, 8, 10])


def test_policy_validation():
    with pytest.raises(ValueError):
        ThresholdPolicy(selector="minimax")
    with pytest.raises(ValueError):
        ThresholdPolicy(grid_points=1)
    with pytest.raises(ValueError):
        ThresholdPolicy(grid_max=0.0)
    # every detail band gets its own threshold; there is no pooled switch
    with pytest.raises(TypeError, match="per_band"):
        ThresholdPolicy(per_band=True)
    # each selector has one spelling; the old aliases are unknown
    for old in ("sure-gaussian-approx", "oracle"):
        with pytest.raises(ValueError, match=f"unknown selector '{old}'"):
            ThresholdPolicy(selector=old)


@pytest.mark.parametrize("field, bad, message", [
    ("fixed_scale", float("nan"), "fixed_scale must be finite"),
    ("fixed_scale", -1.0, "fixed_scale must be finite and >= 0"),
    ("grid_max", float("inf"), "grid_max must be finite"),
    ("grid_max", float("nan"), "grid_max must be finite"),
    ("grid_points", 2.5, "grid_points must be an integer"),
])
def test_policy_rejects_bad_values_at_entry(field, bad, message):
    # each used to pass here and fail later: a NaN image (fixed_scale
    # nan, grid_max inf), an IndexError in the grid buckets (grid_max
    # nan), a soft_threshold error (fixed_scale -1) or a TypeError
    # (grid_points 2.5)
    with pytest.raises(ValueError, match=message):
        ThresholdPolicy(**{field: bad})


@pytest.mark.parametrize("selector", ["fixed", "sure", "oracle-erm"])
@pytest.mark.parametrize("scale", [float("nan"), float("inf"), -1.0])
def test_select_threshold_rejects_bad_noise_scale(selector, scale):
    # NaN used to fail in the grid buckets (IndexError), +inf to return
    # tau = inf (fixed) or warn (sure), and -1 to return 0.0 silently
    noise = BandNoiseModel(variances=np.ones(4), scale=scale)
    policy = ThresholdPolicy(selector=selector)
    with pytest.raises(ValueError, match="noise scale must be finite"):
        select_threshold(np.ones(4), noise, policy, reference=np.ones(4))
    with pytest.raises(ValueError, match="noise scale must be finite"):
        select_threshold(np.ones(0), noise, policy)


def test_fixed_selector_scales_band_noise():
    noise = BandNoiseModel(variances=np.ones(4), scale=2.0)
    policy = ThresholdPolicy(selector="fixed", fixed_scale=3.0)
    assert select_threshold(np.ones(4), noise, policy) == 6.0


def test_oracle_erm_attains_grid_minimum():
    rng = np.random.default_rng(0)
    ref = rng.normal(0, 2, size=200)
    w = ref + rng.normal(0, 1, size=200)
    noise = BandNoiseModel(variances=np.ones(200), scale=1.0)
    policy = ThresholdPolicy(selector="oracle-erm", grid_points=41, grid_max=4.0)
    tau = select_threshold(w, noise, policy, reference=ref)
    grid = threshold_grid(policy, noise.scale)
    risks = np.array([np.sum((soft_threshold(w, t) - ref) ** 2) for t in grid])
    assert np.sum((soft_threshold(w, tau) - ref) ** 2) == risks.min()


def test_oracle_erm_noiseless_band_selects_zero():
    # shrinking an already-clean band only adds error
    w = np.array([3.0, -1.0, 0.5, 2.0])
    noise = BandNoiseModel(variances=np.ones(4), scale=1.0)
    policy = ThresholdPolicy(selector="oracle-erm")
    assert select_threshold(w, noise, policy, reference=w.copy()) == 0.0


def test_oracle_erm_requires_matching_reference():
    noise = BandNoiseModel(variances=np.ones(4), scale=1.0)
    policy = ThresholdPolicy(selector="oracle-erm")
    with pytest.raises(ValueError):
        select_threshold(np.ones(4), noise, policy)
    with pytest.raises(ValueError):
        select_threshold(np.ones(4), noise, policy, reference=np.ones(5))


def test_sure_selector_frozen_hand_case():
    # risk(tau) = sum v_i (1 - 2 * [|w_i| <= tau]) + min(w_i^2, tau^2)
    # w = [.5, .5, 4, -4], v = 1: risk(0)=4, risk(1)=2.5, risk(2)=8.5,
    # rising after, so tau = 1 wins
    w = np.array([0.5, 0.5, 4.0, -4.0])
    noise = BandNoiseModel(variances=np.ones(4), scale=1.0)
    policy = ThresholdPolicy(selector="sure", grid_points=6, grid_max=5.0)
    assert select_threshold(w, noise, policy) == 1.0


def test_oracle_erm_pure_noise_band_zeroes_everything():
    # clean coefficients are all zero, so risk is sum soft(w, tau)^2,
    # nonincreasing in tau; the selected tau must zero the whole band,
    # and the smaller-tau tie break lands on the first grid point that
    # does (0.4 here, the max magnitude)
    w = np.array([0.4, -0.3, 0.2, 0.1, -0.25])
    noise = BandNoiseModel(variances=np.full(5, 0.01), scale=0.1)
    policy = ThresholdPolicy(selector="oracle-erm", grid_points=51, grid_max=5.0)
    tau = select_threshold(w, noise, policy, reference=np.zeros(5))
    assert np.all(soft_threshold(w, tau) == 0.0)
    assert tau == pytest.approx(0.4)


def test_sure_is_unbiased_for_gaussian_bands():
    # paired check: for W ~ N(theta, v), SURE(tau) and the realized loss
    # ||soft(W, tau) - theta||^2 agree in expectation at every tau
    rng = np.random.default_rng(0)
    theta = np.array([0.0, 0.5, 1.0, 2.0, 4.0, -1.5, -3.0, 0.25])
    v = 1.0
    taus = np.linspace(0.0, 3.0, 7)
    trials = 1000
    w = theta + rng.normal(0, np.sqrt(v), size=(trials, theta.size))
    for tau in taus:
        shrunk = np.sign(w) * np.maximum(np.abs(w) - tau, 0.0)
        loss = ((shrunk - theta) ** 2).sum(axis=1)
        sure = (v * (1 - 2 * (np.abs(w) <= tau))
                + np.minimum(w ** 2, tau ** 2)).sum(axis=1)
        paired = sure - loss
        assert abs(paired.mean()) <= 3 * paired.std(ddof=1) / np.sqrt(trials)


def dense_sure_risks(w, v, grid):
    # one row per grid point: the 51 x n risk matrix, summed per row
    inside = np.abs(w)[None, :] <= grid[:, None]
    return (v[None, :] * (1.0 - 2.0 * inside)
            + np.minimum(w[None, :] ** 2, grid[:, None] ** 2)).sum(axis=1)


# coefficients drawn partly from a small pool, so bands carry duplicates,
# exact zeros and magnitudes that land on grid points
_coefficient = st.one_of(st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0, 2.0]),
                         st.floats(-50.0, 50.0))
_variance = st.one_of(st.just(0.0), st.floats(0.0, 20.0))


@given(st.lists(st.tuples(_coefficient, _variance), min_size=1, max_size=80),
       st.floats(1e-3, 10.0))
@example([(0.0, 1.0)] * 5, 1.0)
@example([(0.0, 0.0)] * 5, 1.0)
@example([(3.0, 0.0), (-3.0, 0.0), (0.5, 0.0)], 0.4)
@example([(1.0, 0.5), (1.0, 0.5)], 0.2)
def test_sure_prefix_sums_match_dense_risks(pairs, scale):
    w = np.array([p[0] for p in pairs])
    v = np.array([p[1] for p in pairs])
    policy = ThresholdPolicy(selector="sure")
    grid = threshold_grid(policy, scale)
    dense = dense_sure_risks(w, v, grid)
    # risks may cancel to ~0, so the tolerance is relative to the
    # magnitude of the non-negative terms that make them up
    tol = 1e-9 * (v.sum() + (w ** 2).sum() + grid ** 2 * w.size)
    assert np.all(np.abs(_sure_risks(w, v, grid) - dense) <= tol)
    tau = select_threshold(w, BandNoiseModel(variances=v, scale=scale), policy)
    if tau != grid[np.argmin(dense)]:
        # only a rounding-level near-tie with the dense minimum may differ
        chosen = int(np.flatnonzero(grid == tau)[0])
        assert dense[chosen] - dense.min() <= tol[chosen]


def sorted_prefix_sure_risks(w, v, grid):
    # the O(n log n) form: one sort of |w| and two prefix sums
    magnitude = np.abs(w)
    order = np.argsort(magnitude, kind="stable")
    cv = np.concatenate(([0.0], np.cumsum(v[order])))
    cw = np.concatenate(([0.0], np.cumsum(w[order] ** 2)))
    k = np.searchsorted(magnitude[order], grid, side="right")
    return cv[-1] - 2.0 * cv[k] + cw[k] + grid ** 2 * (w.size - k)


def grid_edge_band(grid, seed):
    # every grid point, one ulp either side of it, zeros, and values past
    # the top of the grid, with random signs and a random background
    rng = np.random.default_rng(seed)
    points = grid[1:]
    edges = np.concatenate([points, np.nextafter(points, 0.0),
                            np.nextafter(points, np.inf), np.zeros(3),
                            grid[-1] * rng.uniform(1.0, 3.0, size=5)])
    background = grid[-1] * rng.uniform(0.0, 1.1, size=200)
    magnitude = np.concatenate([edges, background])
    return magnitude * rng.choice([-1.0, 1.0], size=magnitude.size)


@pytest.mark.parametrize("scale", [1 / 3, 0.7, np.sqrt(255.0), 1e-3])
@pytest.mark.parametrize("points", [51, 7])
def test_grid_buckets_equal_searchsorted_at_grid_edges(scale, points):
    grid = threshold_grid(ThresholdPolicy(grid_points=points), scale)
    magnitude = np.abs(grid_edge_band(grid, points))
    assert np.array_equal(_grid_buckets(magnitude, grid),
                          np.searchsorted(grid, magnitude, side="left"))


@pytest.mark.parametrize("scale", [1 / 3, 0.7, np.sqrt(255.0), 1e-3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bucketed_sure_matches_sorted_prefix_sums(scale, seed):
    policy = ThresholdPolicy(selector="sure")
    grid = threshold_grid(policy, scale)
    w = grid_edge_band(grid, seed)
    v = np.random.default_rng(seed).uniform(0.0, 2.0 * scale ** 2, w.size)
    sorted_risks = sorted_prefix_sure_risks(w, v, grid)
    tol = 1e-9 * (v.sum() + (w ** 2).sum() + grid ** 2 * w.size)
    assert np.all(np.abs(_sure_risks(w, v, grid) - sorted_risks) <= tol)
    tau = select_threshold(w, BandNoiseModel(variances=v, scale=scale), policy)
    assert tau == grid[np.argmin(sorted_risks)]


def dense_oracle_threshold(w, ref, grid):
    # the grid-by-band risk matrix, one row per grid threshold
    shrunk = np.sign(w)[None, :] * np.maximum(
        np.abs(w)[None, :] - grid[:, None], 0.0)
    risks = ((shrunk - ref[None, :]) ** 2).sum(axis=1)
    return grid[int(np.argmin(risks))]


@given(st.lists(st.tuples(_coefficient, _coefficient), min_size=1, max_size=80),
       st.floats(1e-3, 10.0))
@example([(0.0, 0.0)] * 5, 1.0)
@example([(0.4, 0.0), (-0.3, 0.0), (0.2, 0.0)], 0.1)
@example([(3.0, 3.0), (-1.0, -1.0), (0.5, 0.5)], 1.0)
@example([(1.0, 0.5), (1.0, 0.5), (-2.0, 0.0)], 0.2)
def test_oracle_matches_dense_risk_matrix(pairs, scale):
    w = np.array([p[0] for p in pairs])
    ref = np.array([p[1] for p in pairs])
    policy = ThresholdPolicy(selector="oracle-erm")
    grid = threshold_grid(policy, scale)
    noise = BandNoiseModel(variances=np.ones(w.size), scale=scale)
    tau = select_threshold(w, noise, policy, reference=ref)
    assert tau == dense_oracle_threshold(w, ref, grid)


@pytest.mark.parametrize("scale", [1 / 3, 0.7, np.sqrt(255.0), 1e-3])
@pytest.mark.parametrize("seed", [0, 1])
def test_oracle_matches_dense_at_grid_edges(scale, seed):
    policy = ThresholdPolicy(selector="oracle-erm")
    grid = threshold_grid(policy, scale)
    w = grid_edge_band(grid, seed)
    rng = np.random.default_rng(seed)
    # sparse clean signal: most reference coefficients are 0
    ref = np.where(rng.uniform(size=w.size) < 0.2, w, 0.0)
    ref += rng.normal(0.0, 0.1 * scale, size=w.size)
    noise = BandNoiseModel(variances=np.ones(w.size), scale=scale)
    for r in (ref, np.zeros_like(w), w.copy()):
        tau = select_threshold(w, noise, policy, reference=r)
        assert tau == dense_oracle_threshold(w, r, grid)


@pytest.mark.parametrize("scale", [1 / 3, 0.7, np.sqrt(255.0)])
def test_oracle_near_ties_follow_the_direct_sum(scale):
    # ref = w - sign(w) c with c midway between two grid points: the
    # risk n (c - tau)^2 ties exactly between them, so only rounding
    # decides, and the pick must be the one the direct sum makes
    policy = ThresholdPolicy(selector="oracle-erm")
    grid = threshold_grid(policy, scale)
    noise = BandNoiseModel(variances=np.ones(5), scale=scale)
    rng = np.random.default_rng(17)
    for _ in range(200):
        j = rng.integers(1, grid.size - 2)
        c = 0.5 * (grid[j] + grid[j + 1])
        w = rng.uniform(grid[j + 1], 1.2 * grid[-1], size=5)
        w *= rng.choice([-1.0, 1.0], size=5)
        ref = w - np.sign(w) * c
        tau = select_threshold(w, noise, policy, reference=ref)
        assert tau == dense_oracle_threshold(w, ref, grid)


NON_FINITE = [np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("selector", ["sure", "oracle-erm", "fixed"])
@pytest.mark.parametrize("bad", NON_FINITE)
def test_select_threshold_rejects_non_finite_band(selector, bad):
    w = np.array([0.5, 1.0, bad, -2.0])
    noise = BandNoiseModel(variances=np.ones(4), scale=1.0)
    with pytest.raises(ValueError, match="band holds non-finite"):
        select_threshold(w, noise, ThresholdPolicy(selector=selector),
                         reference=np.zeros(4))


@pytest.mark.parametrize("bad", NON_FINITE)
def test_select_threshold_rejects_non_finite_variances(bad):
    # these used to select 0.0 (NaN) or 1.0 (inf) without complaint
    variances = np.array([1.0, bad, 1.0, 1.0])
    noise = BandNoiseModel(variances=variances, scale=1.0)
    with pytest.raises(ValueError, match="variance holds non-finite"):
        select_threshold(np.array([0.5, 1.0, 3.0, -2.0]), noise,
                         ThresholdPolicy(selector="sure"))


@pytest.mark.parametrize("bad", NON_FINITE)
def test_select_threshold_rejects_non_finite_reference(bad):
    noise = BandNoiseModel(variances=np.ones(4), scale=1.0)
    with pytest.raises(ValueError, match="reference holds non-finite"):
        select_threshold(np.array([0.5, 1.0, 3.0, -2.0]), noise,
                         ThresholdPolicy(selector="oracle-erm"),
                         reference=np.array([0.0, bad, 3.0, 0.0]))


def test_sure_ties_break_toward_smaller_tau():
    w = np.zeros(3)
    noise = BandNoiseModel(variances=np.zeros(3), scale=1.0)
    policy = ThresholdPolicy(selector="sure", grid_points=11, grid_max=2.0)
    assert select_threshold(w, noise, policy) == 0.0


def test_zero_scale_and_empty_band_select_zero():
    policy = ThresholdPolicy(selector="sure")
    noise = BandNoiseModel(variances=np.ones(4), scale=0.0)
    assert select_threshold(np.ones(4), noise, policy) == 0.0
    assert select_threshold(np.array([]), noise, policy) == 0.0

