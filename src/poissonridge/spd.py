"""Scaled-Poisson-difference model for wavelet coefficients of counts.

A coefficient W = sum_i psi_i X_i with independent X_i ~ Po(lambda_i)
splits over the sign classes of psi. Each side is replaced by a single
scaled Poisson variable whose scale and rate are chosen so that the
side's mean and variance are matched exactly:

    lam_side = (sum lam |psi|)^2 / (sum lam psi^2)
    alpha_side = (sum lam psi^2) / (sum lam |psi|)

W is then modeled as alpha_plus * P - alpha_minus * M (difference
variant) with P ~ Po(lam_plus), M ~ Po(lam_minus) independent; the sum
variant alpha_plus * P + alpha_minus * M models the magnitude-sum
variable used alongside it. When every |psi_i| on a side is equal the
side's model is exact, not approximate; unit weights reduce the
difference to a Skellam law.

The pmf functions take their Poisson pmf and tail cut from ``_dists``
(scipy.special) where they call them, so importing the package loads
numpy only.
"""

from dataclasses import dataclass

import numpy as np

from .seeding import derive_rng

__all__ = [
    "SpdParams",
    "moment_match",
    "spd_mean_var",
    "spd_pmf",
    "spd_sample",
    "wavelet_coeff_dist",
]

_VARIANTS = ("difference", "sum")

# Poisson tails below this are dropped from pmf enumerations
_TAIL = 1e-12


@dataclass(frozen=True)
class SpdParams:
    """Matched scales and rates for the two sign classes."""

    alpha_plus: float
    lambda_plus: float
    alpha_minus: float
    lambda_minus: float


def _check_variant(variant):
    if variant not in _VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {_VARIANTS}")


def moment_match(atom, intensities):
    """Match one scaled Poisson per sign class of the atom.

    Parameters
    ----------
    atom : array_like
        Analysis weights psi_i.
    intensities : array_like
        Poisson rates lambda_i, same length, non-negative.

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
    if lam.min(initial=0.0) < 0:
        raise ValueError("intensities must be non-negative")

    def side(mask):
        m = float(np.sum(lam[mask] * np.abs(psi[mask])))
        v = float(np.sum(lam[mask] * psi[mask] ** 2))
        if m <= 0.0 or v <= 0.0:
            return 0.0, 0.0
        return v / m, m * m / v

    ap, lp = side(psi >= 0)
    am, lm = side(psi < 0)
    return SpdParams(alpha_plus=ap, lambda_plus=lp, alpha_minus=am, lambda_minus=lm)


def _sign(variant):
    # weight of the minus class: subtracted in the difference variant
    return -1.0 if variant == "difference" else 1.0


def spd_mean_var(params, variant="difference"):
    """Mean and variance of the modeled coefficient."""
    _check_variant(variant)
    plus = params.alpha_plus * params.lambda_plus
    minus = params.alpha_minus * params.lambda_minus
    var = (params.alpha_plus ** 2 * params.lambda_plus
           + params.alpha_minus ** 2 * params.lambda_minus)
    mean = plus - minus if variant == "difference" else plus + minus
    return mean, var


def _tail_cut(lam):
    # smallest k with the upper Poisson tail below _TAIL
    if lam <= 0:
        return 0
    from ._dists import poisson_isf

    return int(poisson_isf(_TAIL, lam)) + 1


def _side_pmf(lam):
    # pmf of one sign class's Poisson count on 0.._tail_cut(lam)
    from ._dists import poisson_pmf

    return poisson_pmf(np.arange(_tail_cut(lam) + 1), lam) if lam > 0 else np.ones(1)


def spd_pmf(params, w, variant="difference", tol=1e-9):
    """Probability that the modeled coefficient equals w (within tol).

    Enumerates the (p, m) count lattice with Poisson tails below 1e-12
    truncated, and accumulates the outcomes whose value
    alpha_plus * p -/+ alpha_minus * m lies within tol of w. Accepts a
    scalar or an array of outcome values.
    """
    _check_variant(variant)
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    sign = _sign(variant)
    ap, am = params.alpha_plus, params.alpha_minus
    p_pmf = _side_pmf(params.lambda_plus)
    m_pmf = _side_pmf(params.lambda_minus)
    p_range = np.arange(p_pmf.size)
    m_range = np.arange(m_pmf.size)

    def one(wv):
        if am == 0.0:
            hits = np.abs(ap * p_range - wv) <= tol
            return float(p_pmf[hits].sum())
        if ap == 0.0:
            hits = np.abs(sign * am * m_range - wv) <= tol
            return float(m_pmf[hits].sum())
        # solve alpha_plus p + sign * alpha_minus m = w for integer m
        m_idx = np.rint((wv - ap * p_range) / (sign * am)).astype(int)
        ok = (m_idx >= 0) & (m_idx < m_pmf.size)
        ok &= np.abs(ap * p_range + sign * am * m_idx - wv) <= tol
        return float((p_pmf[ok] * m_pmf[m_idx[ok]]).sum())

    arr = np.asarray(w, dtype=float)
    if arr.ndim == 0:
        return one(float(arr))
    return np.array([one(v) for v in arr.ravel()]).reshape(arr.shape)


def spd_sample(params, variant="difference", rng=None, seed=None, size=None):
    """Draw from the modeled coefficient distribution.

    Returns a scalar when size is None, else an array of that shape.
    """
    _check_variant(variant)
    if rng is None:
        rng = derive_rng(0 if seed is None else seed, "spd-sample")
    shape = () if size is None else size
    p = rng.poisson(params.lambda_plus, shape)
    m = rng.poisson(params.lambda_minus, shape)
    out = params.alpha_plus * p + _sign(variant) * params.alpha_minus * m
    return float(out) if size is None else out


def _exact_coeff_pmf(atom, intensities, tail):
    """Exact pmf of sum psi_i X_i by merging equal-weight coordinates.

    Coordinates sharing one psi value pool into a single Poisson of the
    summed rate, which keeps the enumeration lattice small for the
    piecewise-constant atoms this is used on. Returns a dict mapping
    rounded outcome values to probabilities, or None when the grouped
    enumeration would still be too large.
    """
    from ._dists import poisson_isf, poisson_pmf

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
    cuts = []
    for p, l in groups.items():
        hi = int(poisson_isf(tail, l)) + 1
        cuts.append((p, l, hi))
    budget = 1
    for _, _, hi in cuts:
        budget *= hi + 1
        if budget > 5_000_000:
            return None
    dist = {0.0: 1.0}
    for p, l, hi in cuts:
        counts = np.arange(hi + 1)
        pmf = poisson_pmf(counts, l)
        new = {}
        for value, prob in dist.items():
            for c, pc in zip(counts, pmf):
                if pc < tail:
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


def wavelet_coeff_dist(atom, intensities, variant="difference", tail=1e-12):
    """Model one coefficient and report the model's quality.

    Returns
    -------
    (SpdParams, float or None)
        The matched parameters and the total-variation distance between
        the modeled pmf and the exact coefficient pmf (enumerated by
        pooling equal-weight coordinates). quality is None when exact
        enumeration is infeasible for the atom.
    """
    params = moment_match(atom, intensities)
    exact = _exact_coeff_pmf(atom, intensities, tail)
    if exact is None:
        return params, None
    # modeled pmf on its own lattice
    sign = _sign(variant)
    p_pmf = _side_pmf(params.lambda_plus)
    m_pmf = _side_pmf(params.lambda_minus)
    model = {}
    for p, prob_p in enumerate(p_pmf):
        if prob_p < tail:
            continue
        for m, prob_m in enumerate(m_pmf):
            joint = prob_p * prob_m
            if joint < tail * tail:
                continue
            key = round(params.alpha_plus * p + sign * params.alpha_minus * m, 9)
            model[key] = model.get(key, 0.0) + joint
    return params, float(_tv_between(exact, model))
