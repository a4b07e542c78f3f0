"""1-D orthonormal wavelet transforms on periodic signals.

Both a decimated pyramid and an undecimated (holes/a-trous) transform are
provided, for any named finite orthonormal filter pair. Signals may carry
a trailing batch axis: shape (n,) or (n, m) with columns transformed
independently.

The filter registry stores lowpass taps; the highpass is the quadrature
mirror hi[k] = (-1)^k lo[L-1-k], which for Haar gives the
first-minus-second convention: detail = (x[2k] - x[2k+1]) / sqrt(2).
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "WaveletSpec",
    "WaveletPyramid",
    "dwt_forward",
    "dwt_inverse",
    "wavelet_atom",
    "approximation_chain",
    "lowpass_gain",
]

_SQRT2 = np.sqrt(2.0)

FILTERS = {
    "haar": np.array([1.0, 1.0]) / _SQRT2,
    "db2": np.array([1.0 + np.sqrt(3.0), 3.0 + np.sqrt(3.0),
                     3.0 - np.sqrt(3.0), 1.0 - np.sqrt(3.0)]) / (4.0 * _SQRT2),
}


def _filter_pair(name):
    try:
        lo = FILTERS[name]
    except KeyError:
        raise ValueError(
            f"unknown wavelet filter {name!r}; known: {sorted(FILTERS)}") from None
    hi = ((-1.0) ** np.arange(len(lo))) * lo[::-1]
    return lo, hi


@dataclass(frozen=True)
class WaveletSpec:
    """Transform recipe: named filter, depth and sampling mode.

    mode is ``"decimated"`` (critically sampled pyramid) or
    ``"undecimated"`` (shift-invariant, every band keeps the input
    length). Boundary handling is periodic in both modes.
    """

    filter: str = "haar"
    levels: int = 1
    mode: str = "undecimated"

    def __post_init__(self):
        if self.mode not in ("decimated", "undecimated"):
            raise ValueError(f"unknown wavelet mode {self.mode!r}")
        if self.levels < 1:
            raise ValueError(f"levels must be >= 1, got {self.levels}")
        lo, _ = _filter_pair(self.filter)
        # orthonormal pair: unit norm and even-shift self-orthogonality
        if abs(lo @ lo - 1.0) > 1e-12:
            raise ValueError(f"filter {self.filter!r} taps are not unit norm")
        for shift in range(2, len(lo), 2):
            if abs(lo[:-shift] @ lo[shift:]) > 1e-12:
                raise ValueError(
                    f"filter {self.filter!r} is not orthogonal to its even shifts")


@dataclass
class WaveletPyramid:
    """Transform output: coarsest approximation plus detail bands.

    details[0] is the finest level (level 1). In decimated mode band
    lengths halve per level and sum to original_length; in undecimated
    mode every band has original_length samples.
    """

    approximation: np.ndarray
    details: list
    spec: WaveletSpec
    original_length: int


def _as_signal(x):
    arr = np.asarray(x, dtype=float)
    if arr.ndim not in (1, 2):
        raise ValueError(f"signal must be 1-D or (n, batch) 2-D, got shape {arr.shape}")
    if arr.shape[0] < 2:
        raise ValueError(f"signal length must be >= 2, got {arr.shape[0]}")
    return arr


def _dec_analysis(x, taps):
    n = x.shape[0]
    half = np.arange(n // 2)
    out = np.zeros((n // 2,) + x.shape[1:])
    for m, c in enumerate(taps):
        out += c * x[(2 * half + m) % n]
    return out


def _dec_synthesis(a, d, lo, hi):
    n = 2 * a.shape[0]
    half = np.arange(n // 2)
    x = np.zeros((n,) + a.shape[1:])
    for m in range(len(lo)):
        np.add.at(x, (2 * half + m) % n, lo[m] * a + hi[m] * d)
    return x


# The undecimated kernels add each tap as two slice adds, the periodic
# shift s split at the wrap, so no shifted copy of the signal is made.
# Every output sample still takes its terms in tap order, starting from
# zero, so the sums are bit-identical to adding np.roll copies.

def _undec_analysis(x, taps, hole):
    """out[i] = sum_m taps[m] * x[(i + m * hole) % n]."""
    n = x.shape[0]
    out = np.zeros_like(x)
    for m, c in enumerate(taps):
        s = (m * hole) % n
        out[:n - s] += c * x[s:]
        out[n - s:] += c * x[:s]
    return out


def _undec_adjoint(a, d, lo, hi, hole):
    """x[i] = sum_m lo[m] * a[(i - s_m) % n] + hi[m] * d[(i - s_m) % n].

    s_m = m * hole; the transpose of _undec_analysis on the pair (a, d).
    """
    n = a.shape[0]
    x = np.zeros_like(a)
    for m in range(len(lo)):
        s = (m * hole) % n
        for c, y in ((lo[m], a), (hi[m], d)):
            x[s:] += c * y[:n - s]
            x[:s] += c * y[n - s:]
    return x


def _check_decimated_length(n, spec, taps):
    div = 2 ** spec.levels
    if n % div != 0:
        need = ((n // div) + 1) * div
        raise ValueError(
            f"decimated mode at {spec.levels} levels requires length divisible "
            f"by {div}; got {n}, pad to {need}")
    # periodized shifts stay orthonormal only while the filter fits once
    if n // 2 ** (spec.levels - 1) < len(taps):
        raise ValueError(
            f"length {n} too short for {spec.levels} decimated levels of "
            f"a {len(taps)}-tap filter")


def _check_undecimated_length(n, spec):
    # the level-j holes are 2**(j-1) apart, so beyond log2(n) levels the
    # filters wrap onto themselves and the bands stop meaning anything
    if 2 ** spec.levels > n:
        raise ValueError(
            f"undecimated mode at {spec.levels} levels requires length at "
            f"least {2 ** spec.levels}; got {n}")


def _check_length(n, spec):
    """Raise ValueError unless spec can analyze signals of length n."""
    if spec.mode == "decimated":
        _check_decimated_length(n, spec, _filter_pair(spec.filter)[0])
    else:
        _check_undecimated_length(n, spec)


def _analysis_cascade(x, spec):
    """One lowpass cascade: (pyramid, approximations finest first).

    The approximation after each level feeds the next level and is kept,
    so callers that need both the pyramid and the co-located
    approximations run every analysis pass once.
    """
    arr = _as_signal(x)
    lo, hi = _filter_pair(spec.filter)
    n = arr.shape[0]
    _check_length(n, spec)
    details, approxes = [], []
    a = arr
    for level in range(1, spec.levels + 1):
        if spec.mode == "decimated":
            details.append(_dec_analysis(a, hi))
            a = _dec_analysis(a, lo)
        else:
            hole = 2 ** (level - 1)
            details.append(_undec_analysis(a, hi, hole))
            a = _undec_analysis(a, lo, hole)
        approxes.append(a)
    return WaveletPyramid(a, details, spec, n), approxes


def dwt_forward(x, spec):
    """Run the multi-level analysis transform.

    Parameters
    ----------
    x : ndarray
        Signal of shape (n,) or (n, batch).
    spec : WaveletSpec

    Returns
    -------
    WaveletPyramid
    """
    return _analysis_cascade(x, spec)[0]


def dwt_inverse(pyr):
    """Reconstruct the signal from a pyramid.

    Decimated synthesis is the orthogonal transpose; undecimated
    synthesis averages the two redundant reconstructions at each level
    (adjoint halved), which inverts the analysis exactly for any length.
    """
    spec = pyr.spec
    lo, hi = _filter_pair(spec.filter)
    a = np.asarray(pyr.approximation, dtype=float)
    if spec.mode == "decimated":
        for d in reversed(pyr.details):
            a = _dec_synthesis(a, np.asarray(d, dtype=float), lo, hi)
    else:
        for level, d in zip(range(spec.levels, 0, -1), reversed(pyr.details)):
            hole = 2 ** (level - 1)
            a = 0.5 * _undec_adjoint(a, np.asarray(d, dtype=float), lo, hi, hole)
    if a.shape[0] != pyr.original_length:
        raise ValueError(
            f"pyramid reconstructs to length {a.shape[0]}, "
            f"expected {pyr.original_length}")
    return a


def approximation_chain(x, spec):
    """Approximation coefficients after each level, finest first.

    Returns a list [a_1, ..., a_levels]; a_level is co-located with the
    detail band of the same level (identical length in both modes).
    """
    return _analysis_cascade(x, spec)[1]


def lowpass_gain(spec, level):
    """Gain of the level-j approximation atom on a constant signal."""
    lo, _ = _filter_pair(spec.filter)
    return float(lo.sum() ** level)


def _band_length(spec, level, n):
    return n // (2 ** level) if spec.mode == "decimated" else n


def wavelet_atom(spec, level, k, n, band="detail"):
    """Analysis vector of one coefficient: coeff = <atom, signal>.

    Parameters
    ----------
    spec : WaveletSpec
    level : int
        1-based decomposition level, <= spec.levels.
    k : int
        Coefficient position inside the band.
    n : int
        Signal length the atom lives on.
    band : str
        ``"detail"`` or ``"approximation"``.

    Notes
    -----
    The atom is the analysis operator's adjoint applied to a coefficient
    indicator. In decimated mode that adjoint is the orthogonal inverse;
    in undecimated mode it is the unhalved transpose, which is what makes
    the inner-product identity hold there too.
    """
    if band not in ("detail", "approximation"):
        raise ValueError(f"unknown band {band!r}")
    if not 1 <= level <= spec.levels:
        raise ValueError(f"level must be in 1..{spec.levels}, got {level}")
    lo, hi = _filter_pair(spec.filter)
    _check_length(n, spec)
    nb = _band_length(spec, level, n)
    if not 0 <= k < nb:
        raise ValueError(f"position must be in 0..{nb - 1}, got {k}")
    vec = np.zeros(nb)
    vec[k] = 1.0
    for depth in range(level, 0, -1):
        length = _band_length(spec, depth - 1, n)
        zeros = np.zeros(length if spec.mode == "undecimated" else vec.shape[0])
        use_detail = depth == level and band == "detail"
        a_in = zeros if use_detail else vec
        d_in = vec if use_detail else zeros
        if spec.mode == "decimated":
            vec = _dec_synthesis(a_in, d_in, lo, hi)
        else:
            vec = _undec_adjoint(a_in, d_in, lo, hi, 2 ** (depth - 1))
    return vec
