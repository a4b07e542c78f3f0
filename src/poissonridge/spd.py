"""Scaled-Poisson-difference model for wavelet coefficients of counts.

A coefficient W = sum_i psi_i X_i with independent X_i ~ Po(lambda_i)
splits over the sign classes of psi. Each side is replaced by a single
scaled Poisson variable whose scale and rate are chosen so that the
side's mean and variance are matched exactly:

    lam_side = (sum lam |psi|)^2 / (sum lam psi^2)
    alpha_side = (sum lam psi^2) / (sum lam |psi|)

W is then modeled as alpha_plus * P - alpha_minus * M with
P ~ Po(lam_plus), M ~ Po(lam_minus) independent. When every |psi_i| on
a side is equal the side's model is exact, not approximate; unit
weights reduce the difference to a Skellam law.

Nothing else in the package calls this module (the denoiser takes its
variances from ``shrinkage.estimate_band_noise``); it is the model that
acceptance criterion 3 checks against the exact coefficient law. The
pmf functions take their Poisson pmf and tail cut from ``_dists``
(scipy.special) where they call them, so importing the package loads
numpy only.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = ["SpdParams", "moment_match", "spd_pmf", "wavelet_coeff_dist"]

# Poisson tails below this are dropped from pmf enumerations
_TAIL = 1e-12

# spd_pmf counts a lattice outcome within this distance of w as w
_TOL = 1e-9

# most outcomes an enumeration takes on (per side in spd_pmf)
_MAX_OUTCOMES = 5_000_000


@dataclass(frozen=True)
class SpdParams:
    """Matched scales and rates for the two sign classes.

    Every field must be finite and non-negative; anything else raises
    ValueError here, not a wrong pmf or a failure inside spd_pmf.
    """

    alpha_plus: float
    lambda_plus: float
    alpha_minus: float
    lambda_minus: float

    def __post_init__(self):
        for name, value in vars(self).items():
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(
                    f"{name} must be finite and >= 0, got {value!r}")


def moment_match(atom, intensities):
    """Match one scaled Poisson per sign class of the atom.

    Parameters
    ----------
    atom : array_like
        Analysis weights psi_i, finite.
    intensities : array_like
        Poisson rates lambda_i, same length, finite and non-negative,
        with finite sums of lambda_i |psi_i| and lambda_i psi_i^2 on
        each sign class.

    Returns
    -------
    SpdParams
        A side whose products lambda_i * psi_i all vanish gets
        (alpha, lambda) = (0, 0).

    Notes
    -----
    The matching is exact in first and second moment on each side:
    alpha * lam equals sum lam |psi| and alpha^2 * lam equals
    sum lam psi^2 up to rounding.
    """
    psi = np.asarray(atom, dtype=float)
    lam = np.asarray(intensities, dtype=float)
    if psi.shape != lam.shape or psi.ndim != 1:
        raise ValueError(
            f"atom and intensities must be equal-length 1-D, got {psi.shape} "
            f"and {lam.shape}")
    if not np.isfinite(psi).all():
        raise ValueError("atom weights must be finite")
    if not np.isfinite(lam).all():
        raise ValueError("intensities must be finite")
    if lam.min(initial=0.0) < 0:
        raise ValueError("intensities must be non-negative")

    def side(mask):
        # an overflowing product is caught by the finiteness check below
        with np.errstate(over="ignore", invalid="ignore"):
            m = float(np.sum(lam[mask] * np.abs(psi[mask])))
            v = float(np.sum(lam[mask] * psi[mask] ** 2))
        if not (math.isfinite(m) and math.isfinite(v)):
            raise ValueError(
                f"atom weights and intensities overflow a side sum: "
                f"sum lam |psi| = {m}, sum lam psi^2 = {v}")
        if m <= 0.0 or v <= 0.0:
            return 0.0, 0.0
        lam_side = m * m / v
        if not math.isfinite(lam_side) or m * m < sys.float_info.min:
            # m * m overflowed, or fell below the normal range and lost
            # bits; m * (m / v) rounds differently, so it serves only there
            lam_side = m * (m / v)
        return v / m, lam_side

    ap, lp = side(psi >= 0)
    am, lm = side(psi < 0)
    return SpdParams(alpha_plus=ap, lambda_plus=lp, alpha_minus=am, lambda_minus=lm)


def _tail_cut(lam):
    # smallest k with the upper Poisson tail below _TAIL; lam > 0, which
    # both callers ensure
    from ._dists import poisson_isf

    return int(poisson_isf(_TAIL, lam)) + 1


def spd_pmf(params, w):
    """Probability that the modeled coefficient equals w.

    Enumerates the (p, m) count lattice with Poisson tails below 1e-12
    truncated, and accumulates the outcomes whose value
    alpha_plus * p - alpha_minus * m lies within 1e-9 of w. Accepts a
    finite scalar or an array of finite outcome values. Raises
    ValueError, before enumerating, when a side has more than 5e6
    outcomes (a rate above about 4.98e6).
    """
    from ._dists import poisson_pmf

    arr = np.asarray(w, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"outcome values w must be finite, got {w!r}")
    ap, am = params.alpha_plus, params.alpha_minus
    lp, lm = params.lambda_plus, params.lambda_minus
    # each side's counts 0.._tail_cut; a side without mass has only 0
    sizes = [_tail_cut(lam) + 1 if lam > 0 else 1 for lam in (lp, lm)]
    if max(sizes) > _MAX_OUTCOMES:
        raise ValueError(
            f"spd_pmf enumerates at most {_MAX_OUTCOMES} outcomes per side; "
            f"rates ({lp}, {lm}) need {sizes}")
    p_range, m_range = map(np.arange, sizes)
    p_pmf, m_pmf = poisson_pmf(p_range, lp), poisson_pmf(m_range, lm)

    def one(wv):
        if am == 0.0:
            hits = np.abs(ap * p_range - wv) <= _TOL
            return float(p_pmf[hits].sum())
        if ap == 0.0:
            hits = np.abs(am * m_range + wv) <= _TOL
            return float(m_pmf[hits].sum())
        # solve alpha_plus p - alpha_minus m = w for integer m
        m_idx = np.rint((ap * p_range - wv) / am).astype(int)
        ok = (m_idx >= 0) & (m_idx < m_pmf.size)
        ok &= np.abs(ap * p_range - am * m_idx - wv) <= _TOL
        return float((p_pmf[ok] * m_pmf[m_idx[ok]]).sum())

    if arr.ndim == 0:
        return one(float(arr))
    return np.array([one(v) for v in arr.ravel()]).reshape(arr.shape)


def _exact_coeff_pmf(atom, intensities):
    """Exact pmf of sum psi_i X_i by merging equal-weight coordinates.

    Coordinates sharing one psi value pool into a single Poisson of the
    summed rate, which keeps the enumeration lattice small for the
    piecewise-constant atoms this is used on. Returns a dict mapping
    rounded outcome values to probabilities, or None when the grouped
    enumeration would still be too large. Outcomes of a pooled count
    with probability below _TAIL are dropped.
    """
    from ._dists import poisson_pmf

    psi = np.asarray(atom, dtype=float)
    lam = np.asarray(intensities, dtype=float)
    groups = {}
    for p, l in zip(psi, lam):
        if p == 0.0 or l == 0.0:
            continue
        key = round(float(p), 12)
        groups[key] = groups.get(key, 0.0) + float(l)
    if not groups:
        return {0.0: 1.0}
    cuts = [(p, l, _tail_cut(l)) for p, l in groups.items()]
    if math.prod(hi + 1 for _, _, hi in cuts) > _MAX_OUTCOMES:
        return None
    dist = {0.0: 1.0}
    for p, l, hi in cuts:
        counts = np.arange(hi + 1)
        pmf = poisson_pmf(counts, l)
        new = {}
        for value, prob in dist.items():
            for c, pc in zip(counts, pmf):
                if pc < _TAIL:
                    continue
                key = round(value + p * c, 9)
                new[key] = new.get(key, 0.0) + prob * pc
        dist = new
    return dist


def _tv_between(exact, model, gap=1e-8):
    """Total variation between two float-keyed pmf dicts.

    Keys closer than gap are treated as the same outcome; accumulation
    order can split one lattice value across two rounded keys.
    """
    keys = sorted(set(exact) | set(model))
    tv = 0.0
    i = 0
    while i < len(keys):
        pe = exact.get(keys[i], 0.0)
        pm = model.get(keys[i], 0.0)
        j = i + 1
        while j < len(keys) and keys[j] - keys[j - 1] <= gap:
            pe += exact.get(keys[j], 0.0)
            pm += model.get(keys[j], 0.0)
            j += 1
        tv += abs(pe - pm)
        i = j
    return 0.5 * tv


def wavelet_coeff_dist(atom, intensities):
    """Model one coefficient and report the model's quality.

    Returns
    -------
    (SpdParams, float or None)
        The matched parameters and the total-variation distance between
        the modeled pmf and the exact coefficient pmf, both enumerated by
        pooling equal-weight coordinates (the model's two coordinates
        are its scaled sign-class counts). quality is None when either
        enumeration is infeasible. Both drop Poisson outcomes whose
        probability is below 1e-12.
    """
    params = moment_match(atom, intensities)
    exact = _exact_coeff_pmf(atom, intensities)
    # the model is itself a weighted sum of two Poisson counts
    model = _exact_coeff_pmf([params.alpha_plus, -params.alpha_minus],
                             [params.lambda_plus, params.lambda_minus])
    if exact is None or model is None:
        return params, None
    return params, float(_tv_between(exact, model))
