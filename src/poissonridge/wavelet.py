"""1-D orthonormal wavelet transforms on periodic signals.

Both a decimated pyramid and an undecimated (holes/a-trous) transform are
provided, for any named finite orthonormal filter pair, by one a-trous
kernel pair; an analysis atom is the transpose of a coefficient
indicator. Signals may carry a trailing batch axis: shape (n,) or
(n, m) with columns transformed independently.

The filter registry stores lowpass taps; the highpass is the quadrature
mirror hi[k] = (-1)^k lo[L-1-k], which for Haar gives the
first-minus-second convention: detail = (x[2k] - x[2k+1]) / sqrt(2).
"""

import numbers
from dataclasses import dataclass, replace

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
        if not isinstance(self.levels, numbers.Integral):
            raise ValueError(f"levels must be an integer, got {self.levels!r}")
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


# One kernel pair serves both modes: undecimated level j uses holes
# 2**(j-1); a decimated level keeps every second hole-1 output and
# inverts as the hole-1 transpose of its zero-upsampled bands (Shensa
# 1992). Each tap is two slice adds, the periodic shift split at the
# wrap, and every output takes its terms in tap order from zero, so the
# sums are bit-identical to np.roll copies and to strided decimated sums.

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


def _upsample(band):
    """band[k] at index 2k of a zero band twice as long."""
    up = np.zeros((2 * band.shape[0],) + band.shape[1:])
    up[::2] = band
    return up


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
    step = 2 if spec.mode == "decimated" else 1
    details, approxes = [], []
    a = arr
    for level in range(1, spec.levels + 1):
        hole = 1 if step == 2 else 2 ** (level - 1)
        details.append(_undec_analysis(a, hi, hole)[::step])
        a = _undec_analysis(a, lo, hole)[::step]
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

    Decimated synthesis is the orthogonal transpose, run on zero-upsampled
    bands; undecimated synthesis averages the two redundant
    reconstructions at each level (adjoint halved), which inverts the
    analysis exactly for any length.
    """
    spec = pyr.spec
    lo, hi = _filter_pair(spec.filter)
    a = np.asarray(pyr.approximation, dtype=float)
    for level, d in zip(range(spec.levels, 0, -1), reversed(pyr.details)):
        d = np.asarray(d, dtype=float)
        if spec.mode == "decimated":
            a = _undec_adjoint(_upsample(a), _upsample(d), lo, hi, 1)
        else:
            a = 0.5 * _undec_adjoint(a, d, lo, hi, 2 ** (level - 1))
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
    The atom is the analysis transpose applied to a coefficient
    indicator: dwt_inverse of a level-deep zero pyramid holding one 1.
    Undecimated dwt_inverse halves each level, so there the atom is
    scaled back by 2**level, which makes the inner-product identity hold.
    """
    if band not in ("detail", "approximation"):
        raise ValueError(f"unknown band {band!r}")
    if not 1 <= level <= spec.levels:
        raise ValueError(f"level must be in 1..{spec.levels}, got {level}")
    _check_length(n, spec)
    pyr = dwt_forward(np.zeros(n), replace(spec, levels=level))
    coeffs = pyr.details[-1] if band == "detail" else pyr.approximation
    if not 0 <= k < coeffs.shape[0]:
        raise ValueError(
            f"position must be in 0..{coeffs.shape[0] - 1}, got {k}")
    coeffs[k] = 1.0
    atom = dwt_inverse(pyr)
    return atom * 2.0 ** level if spec.mode == "undecimated" else atom
