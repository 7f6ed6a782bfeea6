"""Minimal deterministic SVG line plots (axes, legend, polylines).

No plotting library: output must be byte-identical across runs for the
same inputs, and a couple of overlaid curves is all the harness needs.
"""

from __future__ import annotations

import html

import numpy as np

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH = 640
_HEIGHT = 480
_MARGIN_L = 60
_MARGIN_R = 20
_MARGIN_T = 40
_MARGIN_B = 45


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def line_plot_svg(series: list[tuple[str, np.ndarray, np.ndarray]], title: str) -> str:
    """Render labelled (x, y) series as one polyline each.

    Series share the x/y ranges; y range is padded by 5% so flat curves
    stay visible.
    """
    xs = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    ys = np.concatenate([np.asarray(s[2], dtype=float) for s in series])
    x_lo, x_hi = float(np.min(xs)), float(np.max(xs))
    y_lo, y_hi = float(np.min(ys)), float(np.max(ys))
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    pad = 0.05 * (y_hi - y_lo) if y_hi > y_lo else 0.5
    y_lo -= pad
    y_hi += pad

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    # scalars or whole arrays: the same IEEE operations in the same order either way
    def px(x):
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.0f}" y="24" font-family="sans-serif" font-size="16" '
        f'text-anchor="middle">{html.escape(title, quote=False)}</text>',
        # axes
        f'<line x1="{_fmt(px(x_lo))}" y1="{_fmt(py(y_lo))}" x2="{_fmt(px(x_hi))}" '
        f'y2="{_fmt(py(y_lo))}" stroke="black" stroke-width="1"/>',
        f'<line x1="{_fmt(px(x_lo))}" y1="{_fmt(py(y_lo))}" x2="{_fmt(px(x_lo))}" '
        f'y2="{_fmt(py(y_hi))}" stroke="black" stroke-width="1"/>',
    ]

    for i in range(5):
        xt = x_lo + i * (x_hi - x_lo) / 4.0
        yt = y_lo + i * (y_hi - y_lo) / 4.0
        parts.append(
            f'<text x="{_fmt(px(xt))}" y="{_HEIGHT - _MARGIN_B + 18}" font-family="sans-serif" '
            f'font-size="11" text-anchor="middle">{xt:.4g}</text>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{_fmt(py(yt) + 4)}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end">{yt:.4g}</text>'
        )

    for idx, (label, sx, sy) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        pxs = px(np.asarray(sx, dtype=float)).tolist()
        pys = py(np.asarray(sy, dtype=float)).tolist()
        pts = " ".join(f"{a:.3f},{b:.3f}" for a, b in zip(pxs, pys))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>')
        ly = _MARGIN_T + 14 + 16 * idx
        parts.append(
            f'<line x1="{_WIDTH - 170}" y1="{ly - 4}" x2="{_WIDTH - 140}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_WIDTH - 134}" y="{ly}" font-family="sans-serif" font-size="12">'
            f'{html.escape(label, quote=False)}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
