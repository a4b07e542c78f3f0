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
import numbers
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .phantoms import make_phantom, validate_intensity
from .radon import _check_column_wavelet, _column_length, propagate_intensity
from .seeding import derive_rng
from .wavelet import (_check_length, _undec_analysis, dwt_forward,
                      wavelet_atom)

__all__ = [
    "DistReport",
    "LineFit",
    "run_distribution_experiment",
    "variance_vs_intensity",
]

LineFit = namedtuple("LineFit", ["slope", "intercept", "r_squared"])

# fewest Monte-Carlo samples a run accepts
_MIN_SAMPLES = 100


def _check_run_counts(samples, seed):
    """ValueError unless samples >= _MIN_SAMPLES and seed >= 0 are
    integers; RunConfig checks its fields with it too."""
    for name, value in (("samples", samples), ("seed", seed)):
        if not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if samples < _MIN_SAMPLES:
        raise ValueError(
            f"samples must be at least {_MIN_SAMPLES}, got {samples}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")

# Samples are transformed in batches holding about this many bytes of
# Radon data each (one sample's sinogram is rates.nbytes), which keeps
# peak memory flat; no result depends on it. The rotation projector pays
# a fixed cost per angle and batch, so its batches get four times the
# budget; the gdb recursion has no such cost and runs fastest on small
# batches.
_BATCH_BYTES = 2 ** 19
_ROTATION_BATCH_SCALE = 4


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
    """Least-squares line of y on x, or None when the points fix no
    line: fewer than 3 of them, or every x equal."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.size < 3 or x.min() == x.max():
        return None
    design = np.column_stack([x, np.ones_like(x)])
    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    if y.min() == y.max():
        # the horizontal line fits exactly; the residuals, and y's
        # deviations from its rounded mean, are rounding alone
        return LineFit(slope, intercept, 1.0)
    # both sums scaled by one power of 2, which leaves their ratio as it
    # is but keeps every square from overflowing or underflowing
    e = -math.frexp(float(np.abs(y).max()))[1]
    ss_res = float((np.ldexp(y - slope * x - intercept, e) ** 2).sum())
    ss_tot = float((np.ldexp(y - y.mean(), e) ** 2).sum())
    return LineFit(slope, intercept, 1.0 - ss_res / ss_tot)


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
    mean_var_ratio: float
    mean_var_ratio_ci: tuple
    var_pred_ratio: float
    var_pred_ratio_ci: tuple
    # mean_diff and its CI are computed over per-sample averages, not
    # over coefficients: coefficients share pixels, so their deviations
    # carry the common-mode fluctuation of the total count and a
    # coefficient-population CI would be far too narrow.
    mean_diff: float
    mean_diff_ci: tuple
    scatter: np.ndarray
    slope: float
    intercept: float
    r_squared: float
    gof_pass_fraction: float = None
    gof_tested: int = 0


def _band_report(band, level, samples, sums, pred_var, driver):
    emp_mean = sums.s1 / samples
    emp_var = (sums.s2 - sums.s1 * emp_mean) / (samples - 1)
    emp_var = np.maximum(emp_var, 0.0)

    valid = driver > 0
    ratio_ok = valid & (emp_var > 0)
    ratios = emp_mean[ratio_ok] / emp_var[ratio_ok]
    pred_ratios = pred_var[ratio_ok] / emp_var[ratio_ok]
    diff_mean = sums.d1 / samples
    diff_sd = math.sqrt(max(sums.d2 - sums.d1 * diff_mean, 0.0) / (samples - 1))
    diff_half = 1.96 * diff_sd / math.sqrt(samples)
    scatter = np.column_stack([driver[valid], emp_var[valid]])
    fit = (_ols(scatter[:, 0], scatter[:, 1])
           or LineFit(float("nan"), float("nan"), float("nan")))

    return DistReport(
        band=band,
        level=level,
        samples=samples,
        n_coefficients=int(valid.sum()),
        empirical_mean=emp_mean,
        empirical_variance=emp_var,
        predicted_mean=sums.mean,
        predicted_variance=pred_var,
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
    """Variance of one undecimated band of independent Poisson columns.

    Coefficient k of the band is the inner product with the position-0
    atom shifted by k bins, so its variance is the circular correlation
    of the rates with the squared atom: the analysis kernel run with
    the squared atom as its taps.
    """
    atom = wavelet_atom(spec, level, 0, rates.shape[0], band=band)
    return _undec_analysis(rates, np.trim_zeros(atom, "b") ** 2, 1)


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


class _GofCounts:
    """Poisson chi-square GOF outcome counts of the radon band.

    The bins of every distinct rate are pooled before the first sample,
    since the pooling needs only the rate, the sample count and the top
    outcome. Outcomes are then counted straight into one int64 slot per
    (tested coefficient, group): each tested rate owns a contiguous
    block of its coefficients' group rows, and slot 0 takes every
    outcome of an untested coefficient (rate 0, or a rate whose bins
    pool into a single group). Memory therefore scales with the number
    of groups, not with coefficients × outcomes.
    """

    def __init__(self, rates, samples):
        from ._dists import poisson_isf, poisson_pmf, poisson_sf

        flat_rates = np.asarray(rates, dtype=float).ravel()
        # outcomes above top share its bin, which holds the upper tail
        self.top = top = int(poisson_isf(1e-9, max(flat_rates.max(), 1e-3))) + 1

        # sort the usable coefficients by rate once; each distinct rate is
        # then one slice of the order
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

        # outcome -> group tables, one row of top + 1 per tested rate
        # after an all-zero row for the untested coefficients; a
        # coefficient's outcome v goes to slot
        # first[c] + groups[row[c] + v], with row[c] a flat row offset
        tables = [np.zeros(top + 1, dtype=np.intp)]
        self.row = np.zeros(flat_rates.size, dtype=np.intp)
        self.first = np.zeros(flat_rates.size, dtype=np.intp)
        # (first slot, coefficient count, expected count per group)
        self.blocks = []
        size = 1
        for row, start, stop in zip(expected, starts, stops):
            groups = _merge_sparse_bins(row)
            if len(groups) < 2:
                continue
            members = coefs[start:stop]
            self.row[members] = len(tables) * (top + 1)
            self.first[members] = size + len(groups) * np.arange(members.size)
            tables.append(np.repeat(np.arange(len(groups)),
                                    [len(idx) for idx in groups]))
            exp_folded = np.array([row[idx[0]:idx[-1] + 1].sum()
                                   for idx in groups])
            self.blocks.append((size, members.size, exp_folded))
            size += members.size * len(groups)
        self.groups = np.concatenate(tables)
        self.counts = np.zeros(size, dtype=np.int64)

    def add(self, stack):
        """Count the outcomes of samples stacked along the last axis."""
        vals = np.clip(np.rint(stack).astype(np.int64), 0, self.top)
        vals = vals.reshape(self.row.size, -1)
        vals += self.row[:, None]
        slots = self.groups[vals]
        slots += self.first[:, None]
        # one unbuffered add for the batch; the counts only add, so they
        # do not depend on how the samples were batched
        np.add.at(self.counts, slots.ravel(), 1)

    def pass_fraction(self, alpha=0.01):
        """(fraction of tested coefficients passing at level alpha, tested)."""
        from ._dists import chi2_ppf

        if not self.blocks:
            return float("nan"), 0
        stats = []
        dofs = []
        for first, n, exp_folded in self.blocks:
            folded = self.counts[first:first + n * exp_folded.size]
            folded = folded.reshape(n, exp_folded.size)
            stats.append(((folded - exp_folded) ** 2 / exp_folded).sum(axis=1))
            dofs.append(exp_folded.size - 1)
        crits = chi2_ppf(1.0 - alpha, dofs)
        passed = sum(int((stat <= crit).sum()) for stat, crit in zip(stats, crits))
        tested = sum(stat.size for stat in stats)
        return passed / tested, tested


class _BandSums:
    """Running moments of one band, folded in sample order.

    s1 and s2 are per-coefficient sums of values and squares; d1 and d2
    sum each sample's mean deviation from the prediction over the valid
    coefficients, and its square. valid must hold a True, which the
    harness checks before the first sample.
    """

    def __init__(self, mean, valid):
        self.mean = mean
        self.valid = valid
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
        for sample in np.moveaxis(stack, -1, 0).copy():
            self.s1 += sample
            self.s2 += sample * sample
            diff = float((sample - self.mean)[self.valid].mean())
            self.d1 += diff
            self.d2 += diff * diff


def run_distribution_experiment(spec, transform, samples, seed,
                                wavelet=None, gof=False):
    """Sample noisy phantoms and summarize transform-coefficient statistics.

    Samples are drawn and transformed in batches whose size is fixed by
    a byte budget, not by any argument. Results do not depend on the
    batch size: sample i always uses its own stream, and every sum is
    accumulated one sample at a time in sample order. With gof, the
    chi-square bins of every distinct rate are pooled before the first
    sample and each outcome is counted straight into its pooled group,
    so the GOF memory scales with coefficients × groups rather than
    with coefficients × outcomes.

    Parameters
    ----------
    spec : PhantomSpec
        Its propagated rates must give every band a positive prediction;
        that is checked before the first sample is drawn.
    transform : TransformConfig
    samples : int
        Monte-Carlo sample count, an integer >= 100.
    seed : int
        Top-level seed, an integer >= 0; sample i uses the (seed, i) stream.
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
    _check_run_counts(samples, seed)
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

    # (band, level, predicted mean, predicted variance, driver) per band
    bands = [("radon", 0, rates, rates.copy(), rates)]
    if wavelet is not None:
        pred = dwt_forward(rates, wavelet)
        for level, mean in enumerate(pred.details, start=1):
            var = _predicted_variance(rates, wavelet, "detail", level)
            bands.append(("detail", level, mean, var, var))
        var = _predicted_variance(rates, wavelet, "approximation",
                                  wavelet.levels)
        bands.append(("approximation", wavelet.levels, pred.approximation,
                      var, pred.approximation))
    sums = [_BandSums(mean, driver > 0) for _, _, mean, _, driver in bands]
    if not all(acc.valid.any() for acc in sums):
        raise ValueError(
            "every propagated rate is 0 (or so small that a band's "
            "prediction underflows to 0), so every sample would be 0; "
            "the phantom needs a positive intensity")

    gof_counts = _GofCounts(rates, samples) if gof else None

    scale = _ROTATION_BATCH_SCALE if transform.variant == "rotation" else 1
    batch = max(1, _BATCH_BYTES * scale // rates.nbytes)
    for first in range(0, samples, batch):
        counts = [derive_rng(seed, "mc-sample", i).poisson(intensity)
                  for i in range(first, min(first + batch, samples))]
        data = propagate_intensity(np.stack(counts, axis=-1), transform).data
        sums[0].add(data)
        if gof:
            gof_counts.add(data)
        if wavelet is not None:
            # the batch's columns side by side: one analysis for them all
            pyr = dwt_forward(data.reshape(n_off, -1), wavelet)
            for acc, arr in zip(sums[1:], pyr.details + [pyr.approximation]):
                acc.add(arr.reshape(arr.shape[0], n_cols, -1))

    reports = [_band_report(band, level, samples, acc, pred_var, driver)
               for (band, level, _, pred_var, driver), acc in zip(bands, sums)]
    if gof:
        (reports[0].gof_pass_fraction,
         reports[0].gof_tested) = gof_counts.pass_fraction()
    return reports


def variance_vs_intensity(report):
    """OLS fit of empirical variance on the noiseless driver intensity.

    Accepts a DistReport, a list of them (scatters pooled), or a raw
    (n, 2) array. Needs at least 3 points, all finite, at 2 or more
    distinct intensities.
    """
    if isinstance(report, DistReport):
        pts = report.scatter
    elif isinstance(report, (list, tuple)):
        pts = np.vstack([r.scatter for r in report])
    else:
        pts = np.asarray(report, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("scatter must be an (n, 2) array")
    if not np.isfinite(pts).all():
        raise ValueError("scatter points must be finite")
    fit = _ols(pts[:, 0], pts[:, 1])
    if fit is None:
        raise ValueError("a fit needs at least 3 scatter points at 2 or "
                         "more distinct intensities")
    return fit
