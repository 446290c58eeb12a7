"""Self-contained SVG overlay of growth data and fitted curves.

SVG keeps the output diffable and dependency-free; the emitter formats
every coordinate to fixed precision so identical inputs give identical
bytes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import LarvaekitError
from .growth import DISPLAY_NAMES, FitResult, GrowthObservation, predict

WIDTH, HEIGHT = 640, 480
MARGIN_LEFT, MARGIN_RIGHT = 56, 16
MARGIN_TOP, MARGIN_BOTTOM = 20, 44
CURVE_SAMPLES = 121

CURVE_COLORS = {
    "VBGM": "#1f77b4",
    "Gompertz": "#d62728",
    "Linear": "#2ca02c",
    "Power": "#9467bd",
    "Exponential": "#ff7f0e",
}


def _scales(observations: Sequence[GrowthObservation], fits: Sequence[FitResult]):
    t_max = max(o.age_days for o in observations)
    t_max = t_max if t_max > 0 else 1.0
    y_max = max(o.length_mm for o in observations)
    ages = np.linspace(0.0, t_max, CURVE_SAMPLES)
    curves = []
    for result in fits:
        values = np.asarray(predict(result.kind, result.params, ages), dtype=float)
        curves.append((result, values))
        y_max = max(y_max, float(values.max()))
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    def sx(t: float) -> float:
        return MARGIN_LEFT + plot_w * t / t_max
    def sy(v: float) -> float:
        return MARGIN_TOP + plot_h * (1.0 - v / (1.1 * y_max))
    return ages, curves, sx, sy


def growth_chart_svg(
    observations: Sequence[GrowthObservation],
    fits: Sequence[FitResult],
) -> str:
    """Render observations (circles) and fitted curves (one path each)."""
    if not observations:
        raise LarvaekitError("nothing to plot")
    ages, curves, sx, sy = _scales(observations, fits)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">\n',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>\n',
        # axes
        f'<line x1="{MARGIN_LEFT}" y1="{HEIGHT - MARGIN_BOTTOM}" '
        f'x2="{WIDTH - MARGIN_RIGHT}" y2="{HEIGHT - MARGIN_BOTTOM}" stroke="black"/>\n',
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP}" '
        f'x2="{MARGIN_LEFT}" y2="{HEIGHT - MARGIN_BOTTOM}" stroke="black"/>\n',
        f'<text x="{(MARGIN_LEFT + WIDTH - MARGIN_RIGHT) // 2}" y="{HEIGHT - 10}" '
        f'text-anchor="middle" font-size="13">age (days)</text>\n',
        f'<text x="14" y="{(MARGIN_TOP + HEIGHT - MARGIN_BOTTOM) // 2}" '
        f'text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 14 {(MARGIN_TOP + HEIGHT - MARGIN_BOTTOM) // 2})">'
        "length (mm)</text>\n",
    ]
    for idx, (result, values) in enumerate(curves):
        name = DISPLAY_NAMES[result.kind]
        color = CURVE_COLORS[name]
        coords = " L ".join(f"{sx(t):.2f},{sy(v):.2f}" for t, v in zip(ages, values))
        parts.append(
            f'<path class="curve" id="curve-{result.kind.value}" d="M {coords}" '
            f'fill="none" stroke="{color}" stroke-width="1.5"/>\n'
        )
        parts.append(
            f'<text class="legend" x="{WIDTH - MARGIN_RIGHT - 140}" '
            f'y="{MARGIN_TOP + 16 + 16 * idx}" font-size="12" fill="{color}">'
            f"{name} (R&#178;={result.r_squared:.3f})</text>\n"
        )
    for obs in observations:
        parts.append(
            f'<circle class="obs" cx="{sx(obs.age_days):.2f}" cy="{sy(obs.length_mm):.2f}" '
            'r="3.5" fill="black"/>\n'
        )
    parts.append("</svg>\n")
    return "".join(parts)
