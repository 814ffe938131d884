"""Minimal deterministic SVG rendering of 3-D curves.

Three fixed orthographic panels: X-Y, X-Z, and an isometric projection.
Every point is stacked once into contiguous x, y and z columns. Each panel
draws two of them (the isometric one u and v, computed from all three); one
minimum and one maximum reduction give the bounds of every panel, and the
pixels of all panels are one (3, N, 2) array, whose rows are in the order
the polylines print. Output is plain hand-assembled SVG so identical inputs
produce identical bytes, which keeps plots diffable in tests and across runs.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .fileio import _cells, _join_cells, _printable

__all__ = ["render_curves_svg"]

_PANEL = 300          # drawable panel size, px
_MARGIN = 46          # margin around each panel for ticks/labels, px
_GAP = 24             # gap between panels, px
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")

_TITLES = ("top view (X-Y)", "side view (X-Z)", "isometric")
_LABELS = (("x", "y"), ("x", "z"), ("u", "v"))

_ISO_C30 = math.cos(math.radians(30.0))
_ISO_S30 = math.sin(math.radians(30.0))


def _nice_step(span: float) -> float:
    """Tick step of 1/2/5 x 10^k sized to give roughly 5 ticks."""
    if span <= 0.0:
        return 1.0
    raw = span / 5.0
    power = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * power:
            return mult * power
    return 10.0 * power


def _ticks(lo: float, hi: float) -> list[float]:
    step = _nice_step(hi - lo)
    first = math.ceil(lo / step) * step
    # No tick past hi + step lands in the panel. Counting from the span also
    # ends the loop where adding a step no longer changes the value, as for
    # coordinates far larger than their spread.
    limit = math.floor((hi - first) / step) + 2
    ticks = []
    value = first
    while value <= hi + 1e-9 * max(abs(hi), 1.0) and len(ticks) < limit:
        ticks.append(0.0 if abs(value) < 1e-12 else value)
        value += step
    return ticks


def _fmt(value: float) -> str:
    return f"{value:.10g}"


def _polyline_points(px: np.ndarray, breaks: np.ndarray | tuple[()]) -> str:
    """Pixel coordinates, rows of (x, y), as ``x,y x,y ...``, each ``%.10g`` like :func:`_fmt`.

    A new line starts after each row index in ``breaks`` (``()`` for one
    line), so several curves give one line each, joined by newlines; one call
    of the CSV writers' cell kernel formats the coordinates of them all.
    """
    cells = _cells(px.ravel(), 10).reshape(-1, 2, 5)
    ends = np.full(len(cells), ord(" "), np.uint8)
    np.put(ends, breaks, ord("\n"))
    return _join_cells([cells[:, 0], cells[:, 1]], ends)[:-1].decode()


def _panel(
    origin_x: int, labels: tuple[str, str], title: str, scale: float, window: list[list[float]]
) -> list[str]:
    """Render one panel's box, title, axis labels and ticks at the given x offset.

    ``scale`` is in px per mm, and ``window`` holds the low and the high data
    corner of the panel square, each as [horizontal, vertical].
    """
    x0, x1 = origin_x + _MARGIN, origin_x + _MARGIN + _PANEL
    y0, y1 = _MARGIN, _MARGIN + _PANEL
    parts = [
        f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_PANEL}" height="{_PANEL}" '
        'fill="none" stroke="#333333" stroke-width="1"/>',
        f'<text x="{_fmt((x0 + x1) / 2)}" y="{_fmt(y0 - 28)}" text-anchor="middle" '
        f'font-size="13" font-family="sans-serif">{title}</text>',
        f'<text x="{_fmt((x0 + x1) / 2)}" y="{_fmt(y1 + 34)}" text-anchor="middle" '
        f'font-size="11" font-family="sans-serif">{labels[0]} (mm)</text>',
        f'<text x="{_fmt(x0 - 36)}" y="{_fmt((y0 + y1) / 2)}" text-anchor="middle" '
        f'font-size="11" font-family="sans-serif" '
        f'transform="rotate(-90 {_fmt(x0 - 36)} {_fmt((y0 + y1) / 2)})">{labels[1]} (mm)</text>',
    ]

    (u_min, v_min), (u_max, v_max) = window
    for tick in _ticks(u_min, u_max):
        px = x0 + (tick - u_min) * scale
        if not x0 <= px <= x1:
            continue
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{_fmt(y1)}" x2="{_fmt(px)}" y2="{_fmt(y1 + 5)}" '
            'stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(px)}" y="{_fmt(y1 + 17)}" text-anchor="middle" '
            f'font-size="10" font-family="sans-serif">{_fmt(tick)}</text>'
        )
    for tick in _ticks(v_min, v_max):
        py = y1 - (tick - v_min) * scale
        if not y0 <= py <= y1:
            continue
        parts.append(
            f'<line x1="{_fmt(x0 - 5)}" y1="{_fmt(py)}" x2="{_fmt(x0)}" y2="{_fmt(py)}" '
            'stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(x0 - 8)}" y="{_fmt(py + 3)}" text-anchor="end" '
            f'font-size="10" font-family="sans-serif">{_fmt(tick)}</text>'
        )

    return parts


def render_curves_svg(curves: list[np.ndarray], names: list[str]) -> str:
    """Render one or more (N, 3) mm point arrays as a three-panel SVG string.

    The legend below the panels names each curve by its entry of ``names``,
    one name per curve, and each curve has its own colour, so at most six curves.
    A legend name's unprintable characters are written as their ``unicode_escape``
    text (``\\x01``, ``\\udcff``), then ``&``, ``<`` and ``>`` as XML entities.
    Raises ValidationError when a panel cannot be scaled: its padded extent
    overflows, or it rounds to zero for coordinates too large for their spread.
    """
    if not curves:
        raise ValidationError("need at least one curve to plot")
    if len(names) != len(curves):
        raise ValidationError(f"need one legend name per curve, got {len(names)} for {len(curves)} curves")
    if len(curves) > len(_COLORS):
        raise ValidationError(f"can plot at most {len(_COLORS)} curves, one colour each, got {len(curves)}")
    pts = [np.asarray(c, dtype=float).reshape(-1, 3) for c in curves]
    if not all(len(p) for p in pts):
        raise ValidationError(f"curve {[len(p) for p in pts].index(0)} has no points to plot")

    panel_w = _PANEL + 2 * _MARGIN
    width = 3 * panel_w + 2 * _GAP
    height = _PANEL + 2 * _MARGIN + 18

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    # Every point once, as contiguous x, y and z columns; each panel draws two
    # of them, or the isometric u and v, as its horizontal and vertical axis.
    x, y, z = np.concatenate([p.T for p in pts], axis=1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        coords = np.array([[x, y], [x, z], [(x - y) * _ISO_C30, (x + y) * _ISO_S30 - z]])
        lo, hi = np.minimum.reduce(coords, axis=2), np.maximum.reduce(coords, axis=2)
        pad = 0.05 * np.maximum(hi - lo, 1e-9).max(axis=1, keepdims=True)
        lo, hi = lo - pad, hi + pad
        scale = _PANEL / (hi - lo).max(axis=1, keepdims=True)
        # center the data inside each square panel
        offset = (_PANEL - scale * (hi - lo)) / 2.0
        # data-coordinate range covered by each full panel square
        window_lo = lo - offset / scale
        window_hi = window_lo + _PANEL / scale
    for k, title in enumerate(_TITLES):
        if not (0.0 < scale[k, 0] < math.inf and np.isfinite((window_lo[k], window_hi[k])).all()):
            raise ValidationError(
                f"cannot draw the {title} panel: its coordinates overflow or are too large to resolve"
            )
    # One pixel array for all panels, its rows in the order the polylines
    # print: origin + offset + (a - lo) * scale, the y axis pointing down.
    origins = [k * (panel_w + _GAP) for k in range(3)]
    offset[:, 0] += [origin + _MARGIN for origin in origins]
    px = np.empty((3, len(x), 2))
    for j in range(2):
        np.subtract(coords[:, j], lo[:, j, None], out=px[..., j])
    px *= scale[:, None]
    px += offset[:, None]
    np.subtract(_MARGIN + _PANEL, px[..., 1], out=px[..., 1])
    lines = iter(_polyline_points(px, np.cumsum([len(p) for p in pts] * 3) - 1).split("\n"))
    for k, origin_x in enumerate(origins):
        window = [window_lo[k].tolist(), window_hi[k].tolist()]
        parts += _panel(origin_x, _LABELS[k], _TITLES[k], scale[k, 0].item(), window) + [
            f'<polyline points="{next(lines)}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            for color, _ in zip(_COLORS, pts)
        ]

    for k, (color, name) in enumerate(zip(_COLORS, names)):
        name = _printable(name).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        x = 10 + 170 * k
        y = height - 6
        parts.append(
            f'<line x1="{x}" y1="{y - 4}" x2="{x + 18}" y2="{y - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{x + 22}" y="{y}" font-size="11" font-family="sans-serif">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

