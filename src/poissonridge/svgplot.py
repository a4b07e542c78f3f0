"""Minimal self-contained SVG scatter plots with an optional fitted line."""

import numpy as np

from .fileio import _atomic_write

__all__ = ["emit_scatter_svg"]

_WIDTH, _HEIGHT = 640, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 20, 40, 50


def _ticks(lo, hi, count=5):
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / count
    mag = 10.0 ** np.floor(np.log10(raw))
    step = min(s for s in (1 * mag, 2 * mag, 5 * mag, 10 * mag) if s >= raw)
    start = np.ceil(lo / step) * step
    return list(np.arange(start, hi + step / 2, step))


def emit_scatter_svg(scatter, path, fit=None, title="", xlabel="intensity",
                     ylabel="variance"):
    """Write an SVG 1.1 scatter plot.

    Parameters
    ----------
    scatter : (n, 2) array
        Finite x, y point pairs; at least one point.
    path : str
    fit : (slope, intercept) or LineFit, optional
        Finite; drawn across the x range with the slope annotated to 6
        decimals.
    title, xlabel, ylabel : str
        Plain text; markup characters are escaped.

    Raises ValueError if the padded axis ranges are not finite (points
    or fitted line ends near the float limit).
    """
    # saxutils pulls in urllib.request; load it only when a plot is drawn
    from xml.sax.saxutils import escape

    pts = np.asarray(scatter, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 1:
        raise ValueError("scatter must be a nonempty (n, 2) array")
    if not np.isfinite(pts).all():
        raise ValueError("scatter points must be finite")
    if fit is not None:
        slope, intercept = float(fit[0]), float(fit[1])
        if not np.isfinite([slope, intercept]).all():
            raise ValueError(f"fit must be finite, got slope {slope!r} and "
                             f"intercept {intercept!r}")

    x, y = pts[:, 0], pts[:, 1]
    x_lo, x_hi = float(x.min()), float(x.max())
    y_lo, y_hi = float(y.min()), float(y.max())
    if fit is not None:
        y_lo = min(y_lo, slope * x_lo + intercept, slope * x_hi + intercept)
        y_hi = max(y_hi, slope * x_lo + intercept, slope * x_hi + intercept)
    x_pad = (x_hi - x_lo) * 0.05 or max(abs(x_lo), 1.0) * 0.05
    y_pad = (y_hi - y_lo) * 0.05 or max(abs(y_lo), 1.0) * 0.05
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad
    # a finite span implies finite bounds
    if not np.isfinite([x_hi - x_lo, y_hi - y_lo]).all():
        raise ValueError(
            f"axis ranges overflow: x [{x_lo!r}, {x_hi!r}], "
            f"y [{y_lo!r}, {y_hi!r}] after padding")

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(v):
        return _MARGIN_L + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v):
        return _MARGIN_T + (y_hi - v) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="black"/>',
    ]
    font = 'font-family="sans-serif" font-size="12"'
    for tv in _ticks(x_lo, x_hi):
        px = sx(tv)
        parts.append(f'<line x1="{px:.2f}" y1="{_MARGIN_T + plot_h}" '
                     f'x2="{px:.2f}" y2="{_MARGIN_T + plot_h + 5}" '
                     f'stroke="black"/>')
        parts.append(f'<text x="{px:.2f}" y="{_MARGIN_T + plot_h + 18}" '
                     f'{font} text-anchor="middle">{tv:g}</text>')
    for tv in _ticks(y_lo, y_hi):
        py = sy(tv)
        parts.append(f'<line x1="{_MARGIN_L - 5}" y1="{py:.2f}" '
                     f'x2="{_MARGIN_L}" y2="{py:.2f}" stroke="black"/>')
        parts.append(f'<text x="{_MARGIN_L - 8}" y="{py + 4:.2f}" '
                     f'{font} text-anchor="end">{tv:g}</text>')

    for px, py in zip(x, y):
        parts.append(f'<circle cx="{sx(px):.2f}" cy="{sy(py):.2f}" r="2" '
                     f'fill="steelblue" fill-opacity="0.5"/>')

    if fit is not None:
        parts.append(
            f'<line x1="{sx(x_lo):.2f}" y1="{sy(slope * x_lo + intercept):.2f}" '
            f'x2="{sx(x_hi):.2f}" y2="{sy(slope * x_hi + intercept):.2f}" '
            f'stroke="crimson" stroke-width="1.5"/>')
        parts.append(f'<text x="{_MARGIN_L + 10}" y="{_MARGIN_T + 16}" {font} '
                     f'fill="crimson">slope = {slope:.6f}</text>')

    if title:
        parts.append(f'<text x="{_WIDTH / 2:.0f}" y="24" '
                     f'font-family="sans-serif" font-size="16" '
                     f'text-anchor="middle">{escape(title)}</text>')
    parts.append(f'<text x="{_MARGIN_L + plot_w / 2:.0f}" '
                 f'y="{_HEIGHT - 12}" {font} text-anchor="middle">'
                 f'{escape(xlabel)}</text>')
    parts.append(f'<text x="16" y="{_MARGIN_T + plot_h / 2:.0f}" {font} '
                 f'text-anchor="middle" transform="rotate(-90 16 '
                 f'{_MARGIN_T + plot_h / 2:.0f})">{escape(ylabel)}</text>')
    parts.append("</svg>\n")
    _atomic_write(path, "\n".join(parts).encode("utf-8"))
