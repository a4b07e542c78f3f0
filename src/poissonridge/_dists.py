"""The Poisson and chi-square functions the model checks call.

Each evaluates the scipy.special expression that scipy.stats (1.17)
evaluates for the same call, so results are bit-identical to
``scipy.stats.poisson.pmf/sf/isf`` and ``scipy.stats.chi2.ppf`` on the
inputs used here: integer outcomes k >= 0, rates mu >= 0, tail
probabilities q in (0, 1) and p in (0, 1). Importing scipy.special
costs a fraction of scipy.stats, which pulls in hundreds of modules.
"""

import numpy as np
from scipy.special import gammaincinv, gammaln, pdtr, pdtrc, pdtrik, xlogy


def poisson_pmf(k, mu):
    """P(X = k) for X ~ Po(mu)."""
    return np.clip(np.exp(xlogy(k, mu) - gammaln(k + 1) - mu), 0, 1)


def poisson_sf(k, mu):
    """P(X > k) for X ~ Po(mu)."""
    return np.clip(pdtrc(np.floor(k), mu), 0, 1)


def poisson_isf(q, mu):
    """Smallest integer k with P(X > k) <= q, for X ~ Po(mu)."""
    p = 1.0 - q
    v = np.ceil(pdtrik(p, mu))
    v1 = np.maximum(v - 1, 0)
    return np.where(pdtr(v1, mu) >= p, v1, v)


def chi2_ppf(p, df):
    """Quantile p of the chi-square law with df degrees of freedom."""
    return 2 * gammaincinv(np.asarray(df) / 2, p)
