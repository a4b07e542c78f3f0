"""The model checks' Poisson and chi-square helpers equal scipy.stats.

Each helper repeats the scipy.special expression scipy.stats evaluates,
so the comparisons are exact (np.array_equal), on the inputs the
package passes: pmf/sf tables over k = arange(top) for the rates the GOF
check groups, isf at the GOF and spd tails with a scalar rate, and the
chi-square critical values of the GOF's degrees of freedom.
"""

import numpy as np
import pytest
from scipy.stats import chi2, poisson

from poissonridge._dists import chi2_ppf, poisson_isf, poisson_pmf, poisson_sf
from poissonridge.phantoms import PhantomSpec, make_phantom
from poissonridge.radon import TransformConfig, propagate_intensity
from poissonridge.spd import _TAIL, moment_match
from poissonridge.wavelet import WaveletSpec, wavelet_atom

GOF_TAIL = 1e-9


def gof_rates():
    # the distinct rates _GofCounts groups by: projected phantoms,
    # rounded to 9 digits, and a sweep from near zero to high counts
    rates = [np.geomspace(1e-6, 400.0, 1500),
             np.round(np.geomspace(1e-6, 400.0, 500) * np.pi, 9)]
    for kind, transform in (("inhomogeneous", TransformConfig("gdb")),
                            ("homogeneous", TransformConfig("rotation", 30))):
        intensity = make_phantom(PhantomSpec(kind, 16, 0.5, 10.0))
        rates.append(propagate_intensity(intensity, transform).data.ravel())
    flat = np.concatenate(rates)
    return np.unique(np.round(flat[flat > 0], 9))


@pytest.fixture(scope="module")
def lams():
    return gof_rates()


def test_gof_pmf_and_sf_tables_match_scipy(lams):
    top = int(poisson_isf(GOF_TAIL, max(lams.max(), 1e-3))) + 1
    assert top == int(poisson.isf(GOF_TAIL, max(lams.max(), 1e-3))) + 1
    k = np.arange(top)
    assert np.array_equal(poisson_pmf(k, lams[:, None]),
                          poisson.pmf(k, lams[:, None]))
    assert np.array_equal(poisson_sf(top - 1, lams), poisson.sf(top - 1, lams))
    # small tables too, as for runs whose largest rate is low
    for small in (lams[:50], lams[lams < 3.0]):
        top = int(poisson_isf(GOF_TAIL, max(small.max(), 1e-3))) + 1
        assert np.array_equal(poisson_sf(top - 1, small),
                              poisson.sf(top - 1, small))


@pytest.mark.parametrize("q", [GOF_TAIL, _TAIL, 1e-6])
def test_isf_with_a_scalar_rate_matches_scipy(lams, q):
    for mu in np.concatenate([lams[::7], [1e-3, 0.5, 1.0, 2.0, 3.0, 400.0]]):
        assert np.array_equal(poisson_isf(q, mu), poisson.isf(q, mu)), mu
        assert int(poisson_isf(q, mu)) == int(poisson.isf(q, mu))


def test_chi2_critical_values_match_scipy():
    dofs = list(range(1, 400))
    assert np.array_equal(chi2_ppf(0.99, dofs), chi2.ppf(0.99, dofs))
    # pass_fraction takes any alpha. For these dofs the upper-tail
    # inverse chdtri(df, 1 - p) agrees bit for bit at p = 0.99 and 0.95,
    # but not at 0.9, 0.5 or 0.1, which tell the two apart
    for alpha in (0.05, 0.1, 0.5, 0.9):
        assert np.array_equal(chi2_ppf(1.0 - alpha, dofs),
                              chi2.ppf(1.0 - alpha, dofs)), alpha


def test_scalar_rate_pmf_matches_scipy_as_spd_calls_it():
    # spd enumerates each side's lattice up to its isf tail cut
    sides = [2.0, 3.0, 1e-4, 0.37, 57.5]
    for level in (1, 2, 3):
        atom = wavelet_atom(WaveletSpec("db2", 3), level, 3, 64)
        params = moment_match(atom, np.linspace(0.5, 9.0, 64))
        sides += [params.lambda_plus, params.lambda_minus]
    for mu in sides:
        k = np.arange(int(poisson_isf(_TAIL, mu)) + 2)
        assert np.array_equal(poisson_pmf(k, mu), poisson.pmf(k, mu)), mu
