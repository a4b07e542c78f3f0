"""Monte-Carlo verification of propagated Poisson statistics.

Samples many noisy realizations of a phantom, pushes each through a
discrete Radon transform and optionally per-projection wavelets, then
compares empirical coefficient statistics against the propagated
predictions: means against the noiseless transform, variances against
the moment-matched model, per-coefficient mean/variance ratios with
confidence intervals, variance-vs-intensity regressions, and a
chi-square goodness-of-fit check for integer-valued variants.

scipy serves only the goodness-of-fit check, through the scipy.special
expressions in ``_dists``, imported where that check runs: the denoiser
never needs scipy, and scipy.stats, which evaluates the same
expressions, takes several times as long to load as the whole package.
"""

import heapq
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .phantoms import make_phantom, validate_intensity
from .radon import _check_column_wavelet, _column_length, propagate_intensity
from .seeding import derive_rng
from .wavelet import _check_length, dwt_forward, wavelet_atom

__all__ = [
    "DistReport",
    "LineFit",
    "run_distribution_experiment",
    "variance_vs_intensity",
]

LineFit = namedtuple("LineFit", ["slope", "intercept", "r_squared"])

# fewest Monte-Carlo samples a run accepts; RunConfig checks it too
_MIN_SAMPLES = 100

# Samples are transformed in batches holding about this many bytes of
# Radon data each (one sample's sinogram is rates.nbytes), which keeps
# peak memory flat; no result depends on it.
_BATCH_BYTES = 2 ** 19


def _normal_ci(values):
    """95% normal-approximation CI over a population of per-coefficient stats."""
    values = np.asarray(values, dtype=float)
    n = values.size
    if n == 0:
        return (float("nan"), float("nan"))
    center = float(values.mean())
    if n < 2:
        return (center, center)
    half = 1.96 * float(values.std(ddof=1)) / math.sqrt(n)
    return (center - half, center + half)


def _ols(x, y):
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.size < 3:
        raise ValueError("need at least 3 scatter points for a fit")
    design = np.column_stack([x, np.ones_like(x)])
    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    ss_res = float(((y - slope * x - intercept) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res < 1e-24 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return LineFit(slope, intercept, r2)


@dataclass
class DistReport:
    """Distributional summary of one coefficient band.

    Per-coefficient arrays keep the full band shape. Aggregate statistics
    and their 95% CIs are taken over the population of coefficients whose
    prediction driver is positive (and whose empirical variance is
    positive, for the ratio rows). scatter pairs the driver with the
    empirical variance; for the radon and approximation bands the driver
    is the predicted mean, for detail bands the predicted variance.
    """

    band: str
    level: int
    samples: int
    n_coefficients: int
    empirical_mean: np.ndarray
    empirical_variance: np.ndarray
    predicted_mean: np.ndarray
    predicted_variance: np.ndarray
    # mean_diff and its CI are computed over per-sample averages, not
    # over coefficients: coefficients share pixels, so their deviations
    # carry the common-mode fluctuation of the total count and a
    # coefficient-population CI would be far too narrow.
    mean_ci: tuple
    variance_ci: tuple
    mean_var_ratio: float
    mean_var_ratio_ci: tuple
    var_pred_ratio: float
    var_pred_ratio_ci: tuple
    mean_diff: float
    mean_diff_ci: tuple
    scatter: np.ndarray
    slope: float
    intercept: float
    r_squared: float
    gof_pass_fraction: float = None
    gof_tested: int = 0


def _band_report(band, level, samples, s1, s2, d1, d2,
                 pred_mean, pred_var, driver):
    emp_mean = s1 / samples
    emp_var = (s2 - s1 * emp_mean) / (samples - 1)
    emp_var = np.maximum(emp_var, 0.0)

    valid = driver > 0
    ratio_ok = valid & (emp_var > 0)
    ratios = emp_mean[ratio_ok] / emp_var[ratio_ok]
    pred_ratios = pred_var[ratio_ok] / emp_var[ratio_ok]
    diff_mean = d1 / samples
    diff_sd = math.sqrt(max(d2 - d1 * diff_mean, 0.0) / (samples - 1))
    diff_half = 1.96 * diff_sd / math.sqrt(samples)
    scatter = np.column_stack([driver[valid], emp_var[valid]])
    if scatter.shape[0] >= 3:
        fit = _ols(scatter[:, 0], scatter[:, 1])
    else:
        fit = LineFit(float("nan"), float("nan"), float("nan"))

    return DistReport(
        band=band,
        level=level,
        samples=samples,
        n_coefficients=int(valid.sum()),
        empirical_mean=emp_mean,
        empirical_variance=emp_var,
        predicted_mean=pred_mean,
        predicted_variance=pred_var,
        mean_ci=_normal_ci(emp_mean[valid]),
        variance_ci=_normal_ci(emp_var[valid]),
        mean_var_ratio=float(ratios.mean()) if ratios.size else float("nan"),
        mean_var_ratio_ci=_normal_ci(ratios),
        var_pred_ratio=float(pred_ratios.mean()) if pred_ratios.size else float("nan"),
        var_pred_ratio_ci=_normal_ci(pred_ratios),
        mean_diff=diff_mean,
        mean_diff_ci=(diff_mean - diff_half, diff_mean + diff_half),
        scatter=scatter,
        slope=fit.slope,
        intercept=fit.intercept,
        r_squared=fit.r_squared,
    )


def _predicted_variance(rates, spec, band, level):
    """Variance of one band of the transform of independent Poisson columns.

    Coefficient k of the band is the inner product with the position-0
    atom shifted by k * step bins (step 1 undecimated, 2**level
    decimated), so its variance is the circular correlation of the
    rates with the squared atom.
    """
    n = rates.shape[0]
    atom = wavelet_atom(spec, level, 0, n, band=band)
    step = 2 ** level if spec.mode == "decimated" else 1
    pos = np.arange(0, n, step)
    var = np.zeros((pos.size,) + rates.shape[1:])
    for t in np.flatnonzero(atom):
        var += atom[t] ** 2 * rates[(pos + t) % n]
    return var


def _merge_sparse_bins(expected, minimum=5.0):
    """Pool adjacent bins until each group's expectation reaches minimum.

    Greedy: repeatedly fold the smallest group (the first one on ties)
    into its smaller neighbor (the left one on ties). Returns a list of
    index lists (possibly a single group).
    """
    totals = [float(e) for e in expected]
    n = len(totals)
    # live groups are keyed by their first bin and linked to their
    # neighbors; the heap's least live (total, first bin) entry is the
    # first smallest group. Entries whose group has since been absorbed
    # or grown are stale and skipped.
    alive = [True] * n
    prev = list(range(-1, n - 1))       # first bin of the group before
    end = list(range(1, n + 1))         # one past the group's last bin
    heap = [(t, k) for k, t in enumerate(totals)]
    heapq.heapify(heap)
    live = n
    while live > 1:
        total, i = heap[0]
        if not alive[i] or totals[i] != total:
            heapq.heappop(heap)
            continue
        if total >= minimum:
            break
        heapq.heappop(heap)
        left, right = prev[i], end[i]
        if left < 0:
            j = right
        elif right == n:
            j = left
        else:
            j = left if totals[left] <= totals[right] else right
        lo, hi = min(i, j), max(i, j)
        totals[lo] += totals[hi]
        alive[hi] = False
        end[lo] = end[hi]
        if end[hi] < n:
            prev[end[hi]] = lo
        live -= 1
        heapq.heappush(heap, (totals[lo], lo))
    return [list(range(k, end[k])) for k in range(n) if alive[k]]


def _gof_fraction(hist, rates, samples, alpha=0.01):
    """Fraction of coefficients passing a Poisson chi-square GOF test.

    hist holds per-coefficient outcome counts with the last bin catching
    overflow. Coefficients are grouped by rate so binning and critical
    values are computed once per distinct intensity.
    """
    from ._dists import chi2_ppf, poisson_pmf, poisson_sf

    flat_hist = hist.reshape(-1, hist.shape[-1])
    flat_rates = np.asarray(rates, dtype=float).ravel()
    top = hist.shape[-1] - 1

    # sort the usable coefficients by rate once; each distinct rate is
    # then one slice of the order, gathered with no per-rate mask
    usable = np.flatnonzero(flat_rates > 0)
    keys = np.round(flat_rates[usable], 9)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    coefs = usable[order]
    lams, starts = np.unique(keys, return_index=True)
    stops = np.append(starts[1:], keys.size)

    # expected outcome counts of every distinct rate: one row per rate
    expected = np.empty((lams.size, top + 1))
    expected[:, :top] = samples * poisson_pmf(np.arange(top), lams[:, None])
    expected[:, top] = samples * poisson_sf(top - 1, lams)

    stats = []
    dofs = []
    for row, start, stop in zip(expected, starts, stops):
        groups = _merge_sparse_bins(row)
        if len(groups) < 2:
            continue
        # groups are runs of adjacent bins, so each folds with reduceat
        rows = flat_hist[coefs[start:stop]]
        folded = np.add.reduceat(rows, [idx[0] for idx in groups], axis=1)
        exp_folded = np.array([row[idx[0]:idx[-1] + 1].sum()
                               for idx in groups])
        stats.append(((folded - exp_folded) ** 2 / exp_folded).sum(axis=1))
        dofs.append(len(groups) - 1)
    if not stats:
        return float("nan"), 0
    crits = chi2_ppf(1.0 - alpha, dofs)
    passed = sum(int((stat <= crit).sum()) for stat, crit in zip(stats, crits))
    tested = sum(stat.size for stat in stats)
    return passed / tested, tested


def _band_arrays(pyr, band_specs):
    return [pyr.details[level - 1] if band == "detail" else pyr.approximation
            for band, level in band_specs]


class _BandSums:
    """Running moments of one band, folded in sample order.

    s1 and s2 are per-coefficient sums of values and squares; d1 and d2
    sum each sample's mean deviation from the prediction over the valid
    coefficients, and its square.
    """

    def __init__(self, mean, valid):
        self.mean = mean
        self.valid = valid
        self.any_valid = bool(valid.any())
        self.s1 = np.zeros_like(mean)
        self.s2 = np.zeros_like(mean)
        self.d1 = 0.0
        self.d2 = 0.0

    def add(self, stack):
        """Fold in samples stacked along the last axis, first to last.

        Every sum is taken one sample at a time in sample order, so the
        totals do not depend on how the samples were batched. The
        samples are read from one samples-first copy, each contiguous.
        """
        samples = np.moveaxis(stack, -1, 0).copy()
        squares = samples * samples
        for sample, square in zip(samples, squares):
            self.s1 += sample
            self.s2 += square
            if self.any_valid:
                diff = float((sample - self.mean)[self.valid].mean())
                self.d1 += diff
                self.d2 += diff * diff


def run_distribution_experiment(spec, transform, samples, seed,
                                wavelet=None, gof=False):
    """Sample noisy phantoms and summarize transform-coefficient statistics.

    Samples are drawn and transformed in batches whose size is fixed by
    a byte budget, not by any argument. Results do not depend on the
    batch size: sample i always uses its own stream, and every sum is
    accumulated one sample at a time in sample order.

    Parameters
    ----------
    spec : PhantomSpec
    transform : TransformConfig
    samples : int
        Monte-Carlo sample count, at least 100.
    seed : int
        Top-level seed; sample i uses a stream derived from (seed, i).
    wavelet : WaveletSpec, optional
        When given, per-projection pyramids are accumulated too and the
        result gains one report per detail level plus the approximation.
        Must be undecimated: decimated analysis needs an even length,
        and Radon columns have an odd number of offsets. Its 2**levels
        must not exceed the Radon column length; both are checked
        before anything is projected.
    gof : bool
        Also run the per-coefficient Poisson chi-square test on the
        radon band. Requires an integer-valued variant (gdb, or rotation
        with nearest interpolation).

    Returns
    -------
    list of DistReport
        Radon band first, then details finest to coarsest, then the
        approximation band.
    """
    if samples < _MIN_SAMPLES:
        raise ValueError(f"samples must be at least {_MIN_SAMPLES}")
    _check_column_wavelet(wavelet)
    integer_valued = transform.variant == "gdb" or transform.interp == "nearest"
    if gof and not integer_valued:
        raise ValueError(
            "chi-square GOF needs integer-valued coefficients "
            "(gdb variant or nearest interpolation)")

    intensity = validate_intensity(make_phantom(spec))
    if wavelet is not None:
        _check_length(_column_length(intensity.shape, transform), wavelet)
    rates = propagate_intensity(intensity, transform).data
    n_off, n_cols = rates.shape

    band_specs = []
    pred_mean = []
    if wavelet is not None:
        band_specs = [("detail", level) for level in range(1, wavelet.levels + 1)]
        band_specs.append(("approximation", wavelet.levels))
        pred_mean = _band_arrays(dwt_forward(rates, wavelet), band_specs)
    pred_var = [_predicted_variance(rates, wavelet, band, level)
                for band, level in band_specs]
    drivers = [pm if b == "approximation" else pv
               for (b, _), pm, pv in zip(band_specs, pred_mean, pred_var)]

    radon = _BandSums(rates, rates > 0)
    bands = [_BandSums(pm, d > 0) for pm, d in zip(pred_mean, drivers)]

    if gof:
        from ._dists import poisson_isf

        top = int(poisson_isf(1e-9, max(rates.max(), 1e-3))) + 1
        # flat (coefficient, outcome) counts; coefficient c's bins start
        # at c * (top + 1)
        hist = np.zeros(n_off * n_cols * (top + 1), dtype=np.int64)
        bin_base = (np.arange(n_off * n_cols) * (top + 1))[:, None]

    batch = max(1, _BATCH_BYTES // rates.nbytes)
    for first in range(0, samples, batch):
        counts = [derive_rng(seed, "mc-sample", i).poisson(intensity)
                  .astype(np.int64)
                  for i in range(first, min(first + batch, samples))]
        data = propagate_intensity(np.stack(counts, axis=-1), transform).data
        radon.add(data)
        if gof:
            # one unbuffered add for the batch; a bincount would zero and
            # add a histogram-sized array every batch, about 4x slower
            vals = np.clip(np.rint(data).astype(np.int64), 0, top)
            np.add.at(hist, (bin_base + vals.reshape(n_off * n_cols, -1)).ravel(), 1)
        if band_specs:
            # the batch's columns side by side: one analysis for them all
            pyr = dwt_forward(data.reshape(n_off, -1), wavelet)
            for acc, arr in zip(bands, _band_arrays(pyr, band_specs)):
                acc.add(arr.reshape(arr.shape[0], n_cols, -1))

    reports = [_band_report("radon", 0, samples, radon.s1, radon.s2,
                            radon.d1, radon.d2, rates, rates.copy(), rates)]
    if gof:
        frac, tested = _gof_fraction(hist.reshape(n_off, n_cols, top + 1),
                                     rates, samples)
        reports[0].gof_pass_fraction = frac
        reports[0].gof_tested = tested

    for acc, (band, level), pv, driver in zip(bands, band_specs, pred_var,
                                              drivers):
        reports.append(_band_report(band, level, samples, acc.s1, acc.s2,
                                    acc.d1, acc.d2, acc.mean, pv, driver))
    return reports


def variance_vs_intensity(report):
    """OLS fit of empirical variance on the noiseless driver intensity.

    Accepts a DistReport, a list of them (scatters pooled), or a raw
    (n, 2) array. Needs at least 3 points.
    """
    if isinstance(report, DistReport):
        pts = report.scatter
    elif isinstance(report, (list, tuple)):
        pts = np.vstack([r.scatter for r in report])
    else:
        pts = np.asarray(report, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("scatter must be an (n, 2) array")
    return _ols(pts[:, 0], pts[:, 1])
