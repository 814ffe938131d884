"""Minimal deterministic SVG rendering of 3-D curves.

Three fixed orthographic panels: X-Y, X-Z, and an isometric projection.
Output is plain hand-assembled SVG so identical inputs produce identical
bytes, which keeps plots diffable in tests and across runs.
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

_ISO_C30 = math.cos(math.radians(30.0))
_ISO_S30 = math.sin(math.radians(30.0))


def _iso_project(points: np.ndarray) -> np.ndarray:
    """Isometric projection of (N, 3) points onto the drawing plane."""
    x, y, z = points[:, 0], points[:, 1], points[:, 2]
    u = (x - y) * _ISO_C30
    v = (x + y) * _ISO_S30 - z
    return np.column_stack([u, v])


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


def _polyline_points(*curves: np.ndarray) -> str:
    """(N, 2) pixel coordinates as ``x,y x,y ...``, each ``%.10g`` like :func:`_fmt`.

    Several curves give one such line each, joined by newlines; one call of
    the CSV writers' cell kernel formats the coordinates of them all.
    """
    px = np.concatenate(curves)
    cells = _cells(px.ravel(), 10).reshape(-1, 2, 5)
    ends = np.full(len(px), ord(" "), np.uint8)
    ends[np.cumsum([len(c) for c in curves]) - 1] = ord("\n")
    return _join_cells([cells[:, 0], cells[:, 1]], ends)[:-1].decode()


def _panel(
    projected: list[np.ndarray], labels: tuple[str, str], title: str, origin_x: float
) -> tuple[list[str], list[np.ndarray]]:
    """Render one panel's axes and ticks at the given x offset; return them and its curves in pixels.

    Raises ValidationError when the panel cannot be scaled: its padded extent
    overflows, or it rounds to zero for coordinates too large for their spread.
    """
    allpts = np.vstack(projected)
    lo = allpts.min(axis=0)
    hi = allpts.max(axis=0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        span = np.maximum(hi - lo, 1e-9)
        pad = 0.05 * float(span.max())
        lo, hi = lo - pad, hi + pad
        scale = _PANEL / np.max(hi - lo)
        # center the data inside the square panel
        offset = (np.array([_PANEL, _PANEL]) - scale * (hi - lo)) / 2.0
        # data-coordinate range covered by the full panel square
        window_lo = lo - offset / scale
        window_hi = window_lo + _PANEL / scale
    if not (0.0 < scale < math.inf and np.isfinite((window_lo, window_hi)).all()):
        raise ValidationError(
            f"cannot draw the {title} panel: its coordinates overflow or are too large to resolve"
        )

    def to_px(uv: np.ndarray) -> np.ndarray:
        px = origin_x + _MARGIN + offset[0] + (uv[:, 0] - lo[0]) * scale
        py = _MARGIN + _PANEL - (offset[1] + (uv[:, 1] - lo[1]) * scale)
        return np.column_stack([px, py])

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

    u_min, v_min = window_lo
    for tick in _ticks(u_min, window_hi[0]):
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
    for tick in _ticks(v_min, window_hi[1]):
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

    return parts, [to_px(uv) for uv in projected]


def render_curves_svg(curves: list[np.ndarray], names: list[str]) -> str:
    """Render one or more (N, 3) mm point arrays as a three-panel SVG string.

    The legend below the panels names each curve by its entry of ``names``.
    A legend name's unprintable characters are written as their ``unicode_escape``
    text (``\\x01``, ``\\udcff``), then ``&``, ``<`` and ``>`` as XML entities.
    """
    if not curves:
        raise ValidationError("need at least one curve to plot")
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
    panels = [
        ([p[:, :2] for p in pts], ("x", "y"), "top view (X-Y)"),
        ([p[:, [0, 2]] for p in pts], ("x", "z"), "side view (X-Z)"),
        ([_iso_project(p) for p in pts], ("u", "v"), "isometric"),
    ]
    drawn = [_panel(*panel, k * (panel_w + _GAP)) for k, panel in enumerate(panels)]
    lines = iter(_polyline_points(*(px for _, pixels in drawn for px in pixels)).split("\n"))
    for frame, pixels in drawn:
        parts += frame + [
            f'<polyline points="{next(lines)}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            for color, _ in zip(_COLORS * len(pixels), pixels)
        ]

    for k, name in enumerate(names):
        color = _COLORS[k % len(_COLORS)]
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

