"""Static SVG figures: coordinate scatter plots and distance histograms.

Both emitters are plain string builders (no plotting dependency) so the
byte output is fully deterministic.  Scatter plots show every node as a
small neutral marker and each labeled solution's nodes as larger colored
markers; histogram plots draw one bar per class with height proportional
to relative frequency.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .analysis import DistanceHistogram, HistogramMode
from .instances import Instance
from .objectives import Solution


def escape(text: str) -> str:
    """Escape &, > and < for XML text, in xml.sax.saxutils.escape's order."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


# Fixed marker colors per model label so figures stay comparable run to run.
MODEL_COLORS = {
    "maxsum": "#d62728",
    "maxmin": "#1f77b4",
    "maxminsum": "#2ca02c",
    "mindiff": "#ff7f0e",
    "maxmean": "#9467bd",
    "bilevel-maxsum": "#8c564b",
    "bilevel-maxminsum": "#17becf",
}
_FALLBACK_COLOR = "#7f7f7f"
_POINT_COLOR = "#9aa3ab"

_W, _H = 520, 520
_MARGIN = 48


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _color_for(label: str) -> str:
    return MODEL_COLORS.get(label, _FALLBACK_COLOR)


def scatter_svg(instance: Instance,
                solutions: Sequence[tuple[str, Solution]] = ()) -> str:
    """Plot 2-D instance coordinates with selected subsets highlighted.

    Each (label, solution) pair gets its own marker color; an empty list
    yields the plain point cloud.  Requires 2-D coordinates.
    """
    if instance.coords is None:
        raise ValueError(f"instance {instance.name} has no coordinates")
    if instance.coords.shape[1] != 2:
        raise ValueError(f"scatter plot needs 2-D coordinates, got "
                         f"{instance.coords.shape[1]}-D")
    for _, sol in solutions:
        sol.validate_for(instance)
    xs = instance.coords[:, 0]
    ys = instance.coords[:, 1]
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    x_pad = (x_hi - x_lo) * 0.05 or 1.0
    y_pad = (y_hi - y_lo) * 0.05 or 1.0
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad
    span_x = _W - 2 * _MARGIN
    span_y = _H - 2 * _MARGIN

    def px(x: float) -> float:
        return _MARGIN + (x - x_lo) / (x_hi - x_lo) * span_x

    def py(y: float) -> float:
        # SVG y grows downward
        return _H - _MARGIN - (y - y_lo) / (y_hi - y_lo) * span_y

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{span_x}" height="{span_y}"'
        f' fill="none" stroke="#444444" stroke-width="1"/>',
        f'<text x="{_MARGIN}" y="{_MARGIN - 28}" font-size="14" '
        f'fill="#222222">{escape(instance.name)}</text>',
    ]
    # axis extent labels
    parts.append(f'<text x="{_MARGIN}" y="{_H - _MARGIN + 16}" font-size="10"'
                 f' fill="#555555">{_fmt(x_lo)}</text>')
    parts.append(f'<text x="{_W - _MARGIN}" y="{_H - _MARGIN + 16}" '
                 f'font-size="10" fill="#555555" text-anchor="end">'
                 f'{_fmt(x_hi)}</text>')
    parts.append(f'<text x="{_MARGIN - 4}" y="{_H - _MARGIN}" font-size="10"'
                 f' fill="#555555" text-anchor="end">{_fmt(y_lo)}</text>')
    parts.append(f'<text x="{_MARGIN - 4}" y="{_MARGIN + 4}" font-size="10"'
                 f' fill="#555555" text-anchor="end">{_fmt(y_hi)}</text>')

    for i in range(instance.n):
        parts.append(f'<circle class="pt" cx="{_fmt(px(float(xs[i])))}" '
                     f'cy="{_fmt(py(float(ys[i])))}" r="3" '
                     f'fill="{_POINT_COLOR}"/>')

    legend_y = _MARGIN - 12
    legend_x = _MARGIN
    for label, sol in solutions:
        color = _color_for(label)
        for node in sol:
            parts.append(f'<circle class="sel" data-label="{escape(label)}" '
                         f'cx="{_fmt(px(float(xs[node])))}" '
                         f'cy="{_fmt(py(float(ys[node])))}" r="7" '
                         f'fill="{color}" fill-opacity="0.55" '
                         f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<circle cx="{legend_x}" cy="{legend_y}" r="5" '
                     f'fill="{color}"/>')
        parts.append(f'<text x="{legend_x + 9}" y="{legend_y + 4}" '
                     f'font-size="11" fill="#222222">{escape(label)}</text>')
        legend_x += 14 + 7 * len(label) + 16
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def histogram_svg(hist: DistanceHistogram, title: Optional[str] = None) -> str:
    """Bar chart of a distance histogram, y-axis in relative frequency."""
    span_x = _W - 2 * _MARGIN
    span_y = _H - 2 * _MARGIN
    top = max(hist.relative) if hist.sample_size else 0.0
    if top <= 0:
        top = 1.0
    slot = span_x / 10.0
    bar_w = slot * 0.8
    if hist.mode is HistogramMode.NORMALIZED10:
        labels = [f"{k / 10:.1f}" for k in range(10)]
    else:
        labels = [str(k) for k in range(10)]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        f'<line x1="{_MARGIN}" y1="{_H - _MARGIN}" x2="{_W - _MARGIN}" '
        f'y2="{_H - _MARGIN}" stroke="#444444" stroke-width="1"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
        f'y2="{_H - _MARGIN}" stroke="#444444" stroke-width="1"/>',
    ]
    if title:
        parts.append(f'<text x="{_MARGIN}" y="{_MARGIN - 16}" font-size="14" '
                     f'fill="#222222">{escape(title)}</text>')
    parts.append(f'<text x="{_MARGIN - 6}" y="{_MARGIN + 4}" font-size="10" '
                 f'fill="#555555" text-anchor="end">{top:.3f}</text>')
    parts.append(f'<text x="{_MARGIN - 6}" y="{_H - _MARGIN}" font-size="10" '
                 f'fill="#555555" text-anchor="end">0</text>')
    for k in range(10):
        rel = hist.relative[k]
        h = span_y * (rel / top)
        x = _MARGIN + k * slot + (slot - bar_w) / 2.0
        y = _H - _MARGIN - h
        parts.append(f'<rect class="bar" x="{_fmt(x)}" y="{_fmt(y)}" '
                     f'width="{_fmt(bar_w)}" height="{_fmt(h)}" '
                     f'fill="#4878a8"/>')
        if rel > 0:
            parts.append(f'<text x="{_fmt(x + bar_w / 2.0)}" y="{_fmt(y - 4)}"'
                         f' font-size="9" fill="#333333" text-anchor="middle">'
                         f'{rel:.2f}</text>')
        parts.append(f'<text x="{_fmt(x + bar_w / 2.0)}" '
                     f'y="{_H - _MARGIN + 14}" font-size="10" fill="#555555" '
                     f'text-anchor="middle">{labels[k]}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
